"""The two scatteredness oracles and linear-set statistics.

A linearized polynomial is scattered when every fiber of x -> f(x)/x sits on
one F_q-line; equivalently f + m*X never has more than q roots.  The fiber
oracle is the production path (one pass); the quadratic roots oracle exists
to disagree loudly if the fast path were ever wrong.
"""

from scatlin import LinPoly, make_field, is_scattered_fiber, is_scattered_roots, linear_set_size

ctx = make_field(3, 1, 3)
top = (ctx.size - 1) // (ctx.q - 1)

mono = LinPoly.monomial(ctx, 1, 1)  # x -> x^q
print(f"monomial {mono}: fiber={is_scattered_fiber(mono)} roots={is_scattered_roots(mono)}")
print(f"  linear set size {linear_set_size(mono)} (maximum {top})")

# a binomial of the classical shape: needs a coefficient whose norm into the
# base field avoids 0 and 1
delta = next(d for d in range(2, ctx.size) if ctx.norm_rel(d, 1) not in (0, 1))
lp = LinPoly.from_terms(ctx, 1, {1: 1, ctx.n - 1: delta})
print(f"binomial {lp}: fiber={is_scattered_fiber(lp)} roots={is_scattered_roots(lp)}")

ident = LinPoly.identity(ctx)
print(f"identity {ident}: fiber={is_scattered_fiber(ident)}  "
      f"(one fat fiber, {linear_set_size(ident)} point)")

mid = LinPoly.monomial(ctx, 1, ctx.t)  # x -> x^(q^t), exponent gap not coprime
print(f"middle Frobenius {mid}: size {linear_set_size(mid)} < {top}, "
      f"scattered={is_scattered_fiber(mid)}")
