"""Strong convergence to the random periodic solution.

Compares coarse runs against a shared-noise fine reference (h_ref = 2^-10)
at t = 0 and fits the convergence order for both schemes.  Run sizes are
kept small so the demo finishes in a few seconds; the acceptance tests run
the full-size study.
"""

import math

from randperiodic import builtin_benchmark, fit_order, strong_error


def show(table) -> None:
    print(f"scheme {table.scheme}, {table.rows[0].num_paths} paths, t_eval = {table.t_eval}")
    print(f"{'h':>8}  {'rms error':>10}  {'std err':>9}")
    for row in table.rows:
        mark = "  (diverged)" if row.diverged else ""
        print(f"2^{int(math.log2(row.h)):>4}  {row.rms_error:10.3e}  {row.standard_error:9.1e}{mark}")
    if table.fitted_order is not None:
        print(f"fitted order: {table.fitted_order:.3f}")
    print()


def main() -> None:
    model = builtin_benchmark()
    common = dict(
        h_ref=2.0**-10,
        h_list=[2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
        pullback_periods=6,
        num_paths=200,
        seed=0,
    )
    bem, em = strong_error(model, scheme=("bem", "em"), **common)
    show(bem)
    show(em)
    ratio = em.rows[0].rms_error / bem.rows[0].rms_error
    print(f"at h = 2^-4 the explicit-scheme error is {ratio:.1f}x the implicit one;")
    print("one halving more (h = 2^-3) and the explicit scheme stops converging")
    print("altogether - see the blow-up containment test in the acceptance suite.")
    refit = fit_order(bem)
    print(f"(refitting from the stored rows reproduces the order: {refit.order:.3f})")


if __name__ == "__main__":
    main()
