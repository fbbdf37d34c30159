"""
Classifying quantum subspaces
=============================

Closed quantum subspaces correspond to ideals.  At a fixed truncation
degree an ideal is a linear span that can be row-reduced exactly, so
membership, gradedness, and the even/graded correspondence are all
decidable.  Sampling representations then splits a subspace into its
2-dimensional locus E and its classical locus F.
"""

from random import Random

from halfsphere import (
    IdealSpec,
    NCPoly,
    classify_pair,
    even_to_graded,
    graded_to_even,
    ideal_span,
    is_graded,
    lift_basis,
    membership,
    orbit_equivalent,
    sample_points,
    sample_regular_point,
    sampled_f_symmetric,
    vanishing_ideal,
)
from halfsphere.parsing import format_point
from halfsphere.scalars import EC_I

n = 2
d = 4
rng = Random(3)

# The commutator ideal: dividing by it recovers the classical sphere.
comm = IdealSpec(
    n,
    (NCPoly.from_word(n, (1, 2)) - NCPoly.from_word(n, (2, 1)),),
    d,
)
span = ideal_span(comm)
print("commutator ideal span dimension at degree 4:", span.dimension)
print("contains v1 v2 v1^2 - v2 v1^3:", membership(
    comm,
    NCPoly.from_word(n, (1, 2, 1, 1)) - NCPoly.from_word(n, (2, 1, 1, 1)),
))
print("is graded:", is_graded(comm))
print("is sigma stable:", is_graded(comm))  # stability under nu is gradedness

# Sampling representation points classifies the subspace: every regular
# point dies on the commutators, every real point survives.
sample = sample_points(n, rng)
pair = classify_pair(comm, sample)
print("\nE (2-dimensional locus):", len(pair.E), "points")
print("F (classical locus):    ", len(pair.F), "points")
print("non-classical:", pair.non_classical)
print("F is symmetric under negation:", sampled_f_symmetric(pair))

# A graded ideal is determined by its even part.  The correspondence is
# explicit in both directions at a fixed degree.
square = IdealSpec(n, (NCPoly.from_word(n, (1, 1)),), d)
even_part = graded_to_even(square)
back = even_to_graded(lift_basis(even_part), d, n)
print("\n<v1^2> round trip through the even part:",
      ideal_span(back) == ideal_span(square))

# The same ideal cuts the hyperplane z_1 = 0: all surviving sample points
# have first coordinate zero.
pair2 = classify_pair(square, sample)
survivors = list(pair2.E) + list(pair2.F)
print(f"<v1^2> survivors ({len(survivors)} of {len(sample)}) all satisfy z1 = 0:",
      all(z.coords[0].is_zero() for z in survivors))

# Between the classical sphere and the full quantum sphere there are many
# intermediate subspaces: pick an orbit of regular points, take the ideal
# of elements vanishing there and on the classical locus, and the pair
# classification recovers exactly that orbit.
z = sample_regular_point(n, rng)
f_points = [y for y in sample if classify_pair(comm, [y]).F]
kernel = vanishing_ideal([z, z.scale(EC_I), z.conjugate()] + f_points, d, n)
spec = IdealSpec(n, tuple(lift_basis(kernel)), d)

fresh = z.scale(EC_I).conjugate()       # same orbit, different sample
decoy = sample_regular_point(n, Random(99))
recovered = classify_pair(spec, [fresh, decoy] + f_points)
print("\nintermediate subspace around", format_point(z))
print("fresh point of the orbit is in E:",
      any(orbit_equivalent(w, z) for w in recovered.E))
print("decoy point excluded:",
      all(not orbit_equivalent(w, decoy) or orbit_equivalent(decoy, z)
          for w in recovered.E))
print("classical locus intact:", len(recovered.F) == len(f_points))
