"""Coding orbits into symbolic words, and the glue-back round trip.

Following a point's forward orbit and writing down the color of each
visit produces a symbolic word.  The central fact this library is built
to check: coding through a refined subdivision and then gluing letters
back yields *exactly* the word coded through the original subdivision —
letter for letter, with no tolerance.
"""

from ietwords import (
    code,
    glue_word,
    make_scalar,
    orbit,
    refine_to_good,
    roundtrip_check,
)
from ietwords.instances import fibonacci_instance

spec = fibonacci_instance(80)
R, natural, alpha = spec.pmap, spec.sub, spec.x0

# The orbit itself: exact points, no drift after any number of steps.
print("first golden-rotation orbit points from alpha:")
for x in orbit(R, alpha, 4):
    print("  ", x)
print()

# Coding through the natural partition gives the Fibonacci word.
word = code(R, natural, alpha, spec.length)
print("Fibonacci word, first 80 letters:")
print(word.text(wrap=40))
print()
print("origin: map", word.origin.map_id, "start", word.origin.x0)
print()

# Now pretend we only had the one-letter-coarser subdivision "A" and
# refined it.  Coding through the refinement and projecting through the
# gluing recovers the original word exactly.
refined, gluing = refine_to_good(natural, R)
refined_word = code(R, refined, alpha, spec.length)
glued = glue_word(refined_word, gluing)
print("coded through the refinement:", refined_word.text(wrap=40).split("\n")[0], "...")
print("glued back equals the original:", glued == word.letters)
print()

# roundtrip_check does that comparison in one orbit walk, looking each
# point up in both subdivisions; 10^4 steps on the golden rotation take
# well under a second.
print("roundtrip over 10^4 steps:", roundtrip_check(R, natural, alpha, 10_000))

# A start point with a different future gives a different word, but the
# round trip holds for every start point, not just special ones.
other = make_scalar(1, 7, 0, 1, 5)
print("roundtrip from x0 = 1/7: ", roundtrip_check(R, natural, other, 10_000))
