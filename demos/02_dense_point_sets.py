"""
Sampling dense point sets, exactly
==================================

Finite windows stand in for countable dense sets.  Rational mode keeps all
coordinates exact, so `is_idf` decides exactly whether any two projections
onto a generator differ by an integer (idf: integer-difference-free), the
degenerate case every construction downstream wants ruled out.
"""

import time
from fractions import Fraction as F

from larg_lab import (
    Window,
    is_idf,
    projections,
    rational_hexagon,
    rescale_to_idf,
    sample_poisson_window,
)

# a Poisson draw in the unit square, exact rational coordinates
window = Window(F(0), F(0), F(1), F(1))
pts = sample_poisson_window(window, 25.0, seed=3, mode="rational")
print(f"sampled {len(pts)} points, first: {pts[0]}")

# idf per generator: random rationals essentially never differ by integers
gens = rational_hexagon().generators
for a in gens:
    xs = projections(pts.points, a)
    print(f"  projections on ({a.x}, {a.y}) idf: {is_idf(xs)}")

# a sample that is NOT idf: integer-spaced x coordinates
bad = [F(1, 3), F(4, 3), F(1, 2)]
print("\n{1/3, 4/3, 1/2} idf?", is_idf(bad))

# rescale_to_idf multiplies all coordinates by one alpha until every
# generator projection list is idf; alpha = 1 when already fine
alpha, fixed = rescale_to_idf(pts, gens, seed=1)
print(f"rescaled by alpha = {alpha}")
for a in gens:
    print(f"  rescaled projections on ({a.x}, {a.y}) idf: {is_idf(projections(fixed.points, a))}")

# fingerprints tie graphs to the exact point set they were drawn over
print("fingerprint:", fixed.fingerprint())

# float mode at scale: 10^5 points are drawn into one float64 array, and
# no Vec2 is built until a point is read
start = time.process_time()
big = sample_poisson_window(Window(0.0, 0.0, 316.0, 316.0), 1.0, seed=5)
print(f"\nfloat mode: {len(big)} points in {time.process_time() - start:.2f} s of CPU")
