"""
Exact sparse polynomials and weighted degrees
=============================================

"""

from fractions import Fraction

# A VarSet fixes the names and the order of the variables.  Polynomials
# over different variable sets refuse to interact, which catches a whole
# class of silent bugs early.
from lndfilt import MultiPoly, VarSet, parse_poly, toy_ring

vs = VarSet(("X", "S", "Y"))

# Parsing accepts integer and fraction coefficients, ^ or ** for powers,
# and implicit multiplication is not allowed: write 3*X*S, not 3XS.
p = parse_poly("S^2 + 3*X*S - 1/2", vs)
q = parse_poly("X^2*Y - S^2", vs)
print("p =", p)
print("q =", q)

# All arithmetic is exact: coefficients are fractions.Fraction, so there
# is no floating point anywhere and equality is literal equality.
print("p + q       =", p + q)
print("p * q       =", p * q)
print("p^2         =", p ** 2)
print("p - p == 0  :", (p - p).is_zero())

# Building polynomials programmatically instead of parsing them.
x = MultiPoly.variable(vs, "X")
s = MultiPoly.variable(vs, "S")
y = MultiPoly.variable(vs, "Y")
built = x ** 2 * y - s ** 2
print("built == parsed q :", built == q)

# Formal partial derivatives.
print("dp/dS =", p.derivative("S"))
print("dq/dX =", q.derivative("X"))

# Substitution maps variable names to polynomials.  Every variable that
# actually occurs needs an image, so identity images are spelled out.
shifted = p.substitute({"X": x, "S": s + x ** 2})
print("p with S -> S + X^2 :", shifted)

# divide_exact performs division that must leave no remainder; it raises
# if the quotient is not a polynomial.  Here (p(S+X^2) - p(S)) is always
# divisible by X.
delta = shifted - p
print("(p(S+X^2) - p(S)) / X =", delta.divide_exact(x))

# A ring weighs its variables for its degree filtration: the toy ring of
# demo 02 weighs X, S, Y, Z by 0, 1, 2, 4.  top_slice returns the largest
# weight among a polynomial's terms and the sum of the terms of that weight.
ring = toy_ring()
r = parse_poly("Y^2 - X*Z + S + 3", ring.varset)
top, top_terms = ring.top_slice(r)
print("weights        : X -> 0, S -> 1, Y -> 2, Z -> 4")
print("r              =", r)
print("top weight of r:", top)
print("top slice of r :", top_terms)

# Scalar multiplication accepts int and Fraction on either side.
print("(2/3) * p =", Fraction(2, 3) * p)
