"""Generate-and-filter cover relation: the oracle for the cover kernels.

It shares no code with `poset.covers_of` or `poset.deletion_children`: it
generates every word one rank up or down and keeps those that `contains`
relates to the given word.  Its cost grows with a Catalan number, so it is
used on small semilengths only.
"""

from dyckposet import contains, generate_all


def covers_of(word):
    """All words one rank up that contain `word`."""
    return tuple(w for w in generate_all(word.semilength + 1) if contains(word, w))


def covered_by(word):
    """All words one rank down, of semilength >= 1, that `word` contains."""
    if word.semilength <= 1:
        return ()
    return tuple(w for w in generate_all(word.semilength - 1) if contains(w, word))
