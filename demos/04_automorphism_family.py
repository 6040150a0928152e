"""
A two-parameter automorphism family of the surface
==================================================

"""

# The rings k[X,S,Y,Z]/(X^n*Y - P(X,S), Y^m - X^e*Z - S) with all Q-tail
# coefficients zero carry automorphisms determined by a scaling pair
# (lambda, mu) and a free shift polynomial a(X).  The scalings must
# satisfy mu^(d*m - 1) = lambda^(n*m); on the toy ring (n=2, e=1,
# d=m=2) that reads mu^3 = lambda^4.
from lndfilt import (
    AutParams,
    build_auto,
    check_params,
    compose_params,
    inverse_params,
    toy_ring,
    verify_auto,
)

ring = toy_ring()
print("ring:", ring.fingerprint())

# 16^3 = 4096 = 8^4, so (lambda, mu) = (8, 16) is admissible, with any
# shift polynomial a(X) at all.
params = AutParams.make(8, 16, "X - 3")
print("admissible?", check_params(ring, params) == [])

auto = build_auto(ring, params)
for nm in ("X", "S", "Y", "Z"):
    print(f"alpha({nm}) =", auto.images[nm])

# verify_auto re-checks everything from scratch: the defining relations
# are preserved, the degrees of the generator images match the canonical
# weights, and the inverse parameters really invert: both composites fix X
# and S, and so, since both maps preserve the relations, Y and Z as well.
report = verify_auto(ring, params)
print(report)

# The inverse is again a member of the family, with explicitly computed
# parameters, and composing the two gives the identity parameters.
inv = inverse_params(ring, params)
print("inverse params: lambda =", inv.lam, " mu =", inv.mu, " a =", inv.a)
ident = compose_params(ring, params, inv)
print("compose(params, inverse):", ident.to_json_dict())

# Applying the automorphism and its inverse round-trips any element.
beta = build_auto(ring, inv)
elem = ring.element("S*Y + Z - 5")
print("round trip ok:", beta(auto(elem)) == elem)

# An inadmissible scaling pair is rejected with a reason: 2^3 != 1^4.
bad = AutParams.make(1, 2, "0")
print("violations for (1, 2):", check_params(ring, bad))
