"""The periodic measure: the law of the pulled-back path, one period apart.

Draws independent noise realizations, pulls each back to time t and to
t + tau, and compares the two empirical laws: they agree up to sampling
noise, while laws at different phases within the period differ.  Then
halves the step repeatedly and shows the law converging as h -> 0.
"""

from randperiodic import (
    bootstrap_noise_floor,
    builtin_benchmark,
    derive_seeds,
    measure_convergence_study,
    periodic_measure,
    weak_distance,
)


def main() -> None:
    model = builtin_benchmark()
    h = 2.0**-5
    seeds = derive_seeds(21, 2000)
    t_list = [0.25, 0.75, 1.25]
    mu_a, mu_mid, mu_b = periodic_measure(
        model, seeds, h, pullback_periods=2, t_list=t_list,
    )
    floor = bootstrap_noise_floor(mu_a, n_bootstrap=200, seed=0)
    print(f"{len(seeds)} paths, h = 2^-5")
    print(f"distance(law at t=0.25, law at t=1.25) = {weak_distance(mu_a, mu_b):.2e}"
          f"   <- one period apart: equal up to noise (floor {floor:.2e})")
    print(f"distance(law at t=0.25, law at t=0.75) = {weak_distance(mu_a, mu_mid):.2e}"
          f"   <- half a period apart: genuinely different")
    print()
    study = measure_convergence_study(
        model, seeds, [2.0**-4, 2.0**-5, 2.0**-6], t=0.25, pullback_periods=2,
    )
    print("distance between laws at h and h/2 (shared noise):")
    for pair in study.pairs:
        print(f"  h = {pair.h:<8g} -> {pair.distance:.2e}   "
              f"(ratio to sqrt(h): {pair.ratio_to_sqrt_h:.2e})")
    print("the distances shrink as the step halves: the empirical laws form a")
    print("Cauchy sequence, the numerical signature of a limiting periodic measure.")


if __name__ == "__main__":
    main()
