"""
Explicit cylinder isomorphisms and a cancellation failure
=========================================================

"""

import json

# The surfaces R(n, e) = k[X,S,Y,Z]/(X^n*Y - S^2 - 1, Y^2 - X^e*Z - S)
# are pairwise non-isomorphic as e varies (their derivation-degree
# invariants differ), yet their cylinders R(n, e)[T] are all isomorphic.
# solve_step constructs the isomorphism for one twist e -> e + 1 and
# verify_step certifies it by three independent routes.
from lndfilt import FullStep, cancellation_report, compose_chain, solve_step, verify_step

step = FullStep(1, 1)
endo = solve_step(step)
print("source:", step.source_ring().fingerprint())
print("target:", step.target_ring().fingerprint())
for nm in ("X", "S", "Y", "Z", "T"):
    print(f"Phi({nm}) =", endo.images[nm])

# The certificate records, with exact arithmetic throughout:
#   * both defining relations transported onto the target relations,
#   * the eliminated three-variable relation transported likewise; this
#     entry is derived from the two transports (eliminating S kills the
#     second relation and turns the first into the eliminated one), and it
#     is expanded only when a transport fails,
#   * the displacement identity pinning the image of T,
#   * a recovery program exhibiting every source generator (hence
#     surjectivity, hence bijectivity for these presentations).
cert = verify_step(endo, step)
print("certificate passes:", cert.passed)
for chk in cert.checks:
    print(f"  {chk['name']}: {chk['pass']} ({chk['detail']})")

# The recovery program is a straight-line chain: each row names one
# element of the target and an expression in generator images and
# already-recovered values.
print("recovery chain:")
for stage in cert.recovery:
    for row in stage["entries"]:
        print(f"  stage {stage['stage']}: {row['expression']}")

# Steps compose: walking e = 1 -> 2 -> 3 gives an isomorphism between
# the cylinders over R(1,1) and R(1,3).  Each step is certified once; the
# chain's certificate transports the relations through the composite and
# takes its recovery entries, stage boundaries included, from the steps'
# certificates.
psi, chain_cert = compose_chain(1, 1, 3)
print("chain (1,1) -> (1,3) passes:", chain_cert.passed)
print("Phi(S) along the chain:", psi.images["S"])

# The cancellation report packages the conclusion: the base surfaces
# have different fingerprints (and genuinely different invariants), yet
# the cylinders over them are isomorphic.
report = cancellation_report(1, 1, 2)
print(json.dumps({k: report[k] for k in ("cylinders_isomorphic", "bases_distinct", "note")}, indent=2))
