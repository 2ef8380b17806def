"""Reading structure off a finite word: complexity, recurrence, periods.

All three analyses work on any letter sequence, and all three phrase
their answers as evidence at the analyzed prefix length — a finite
prefix can suggest aperiodicity but never prove it, hence the
*_AT_SCALE verdicts.
"""

from ietwords import (
    BoundarySet,
    Component,
    Subdivision,
    code,
    complexity,
    detect_period,
    make_scalar,
    recurrence_profile,
    rotation,
)
from ietwords.instances import fibonacci_instance

spec = fibonacci_instance(2000)
fib = code(spec.pmap, spec.sub, spec.x0, spec.length)

# Factor complexity p(n): how many distinct length-n blocks occur.
# The Fibonacci word sits at the aperiodic minimum, p(n) = n + 1.
prof = complexity(fib, 12)
print("Fibonacci word, first 2000 letters")
print("   n  p(n)")
for n, p in prof.values:
    print(f"  {n:2d}  {p:4d}")
print()

# Uniform recurrence: the smallest window length W(n) such that every
# length-W window of the prefix contains every length-n factor.
rec = recurrence_profile(fib, 6)
print("   n  window")
for n, w in rec.values:
    print(f"  {n:2d}  {w:6}")
print()

# Periodicity: an exactly periodic coding, from a rational rotation.
def r(num, den=1):
    return make_scalar(num, den, 0, 1, 0)

halves = Subdivision({
    "A": BoundarySet([Component(r(0), True, r(1, 2), False)]),
    "B": BoundarySet([Component(r(1, 2), True, r(1), False)]),
})
periodic = code(rotation(r(2, 7)), halves, r(0), 100)
print("rotation by 2/7 coded over halves:", periodic.text(wrap=28))
print("detect_period ->", detect_period(periodic))
print()

# The same question about the Fibonacci prefix gets the aperiodic
# verdict: no period with a three-repetition tail fits.
print("detect_period on the Fibonacci prefix ->", detect_period(fib))
print()

# Complexity separates the two instantly as well: a periodic word's
# factor counts flatline at the period.
flat = complexity(periodic, 10)
print("periodic word complexity:", [p for _, p in flat.values])
