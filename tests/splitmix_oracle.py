"""SplitMix64 in plain Python integers, masked to 64 bits: the oracle for
`linop.Stream`, written from the definition (Steele, Lea & Flood 2014)
with no numpy, so that it shares no code and no integer semantics with the
stream it checks."""

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def key(words) -> int:
    """The key's pieces are the word count, then for each word its count
    of 64-bit pieces and the pieces, low first; the key is the XOR over j
    of mix(piece j ^ (j + 1) * GOLDEN)."""
    pieces = [len(words)]
    for w in words:
        part = []
        while True:
            part.append(w & MASK)
            w >>= 64
            if not w:
                break
        pieces += [len(part)] + part
    h = 0
    for j, p in enumerate(pieces):
        h ^= mix(p ^ (((j + 1) * GOLDEN) & MASK))
    return h


def words(seed_words, n: int) -> list:
    """The first n words of the stream keyed by seed_words."""
    k = key(seed_words)
    return [mix((k + (i + 1) * GOLDEN) & MASK) for i in range(n)]
