"""Work extraction from a known bit, audited segment by segment.

A two-level system sits in its ground state.  Raise the empty level high
(sudden, free when the bit is truly known), then lower it back slowly while
coupled to the bath: the system extracts heat and delivers work, at most
kT ln 2 of it.  Every protocol run returns a ledger -- work, heat, and
internal-energy change for each stroke -- with the first law holding to
quadrature accuracy.

The second half closes the loop Landauer-style: if the extracting engine
runs off a *memory* of the bit, either the memory is stable (and perfect
extraction would be a genuine second-law violation, which the cycle flags)
or it decays and must be reset, which charges kT ln 2 and eats the profit.
"""

import math

from memlab import MemoryModel, cycle_zero_crossing, memory_engine_cycle, szilard_run

E_MAX, BETA = 5.0, 1.0


def quasistatic(E, beta):
    # reversible limit of the ramp: kT [ln 2 - ln(1 + e^(-beta E))]
    return (math.log(2.0) - math.log(1.0 + math.exp(-beta * E))) / beta


def main():
    ledger = szilard_run(E_MAX, ramp_time=400.0, beta=BETA, p_init=0.0)
    print(f"protocol: raise empty level to E = {E_MAX}, ramp down over t = 400")
    print(f"  {'stroke':<10} {'work on':>10} {'heat in':>10} {'dU':>10}")
    for seg in ledger.segments:
        print(f"  {seg.label:<10} {seg.work:>10.5f} {seg.heat:>10.5f} {seg.delta_u:>10.5f}")
    print(f"  {'total':<10} {ledger.work:>10.5f} {ledger.heat:>10.5f} {ledger.delta_u:>10.5f}")
    print(f"  first-law residual: {ledger.first_law_residual():.2e}")
    print(f"  extracted {ledger.extracted_work:.5f}, reversible limit "
          f"{quasistatic(E_MAX, BETA):.5f}, kT ln 2 = {math.log(2.0):.5f}\n")

    print("slower ramps extract more, never past kT ln 2:")
    print(f"  {'ramp time':>9}  {'extracted':>9}  {'% of ln 2':>9}")
    for T in (0.0, 1.0, 10.0, 100.0, 400.0, 1600.0):
        w = szilard_run(E_MAX, T, BETA, 0.0).extracted_work
        print(f"  {T:>9.0f}  {w:>9.5f}  {100.0 * w / math.log(2.0):>9.2f}")

    print("\na misremembered bit costs dearly (same protocol, wrong occupancy):")
    for p in (0.0, 0.1, 0.25, 0.5):
        w = szilard_run(E_MAX, 400.0, BETA, p).extracted_work
        print(f"  p_wrong = {p:<4}  extracted {w:+.5f}")

    print("\nengine cycles fed by a memory of the bit (ramp time 400):")
    print(f"  {'p_err':>6}  {'reset cost':>10}  {'net work':>9}  {'flag':>4}")
    for p in (0.0, 0.05, 0.1364, 0.25, 0.5):
        for stable in (True, False):
            cyc = memory_engine_cycle(MemoryModel(p, stable=stable),
                                      E_MAX, 400.0, BETA)
            tag = "stable" if stable else "decaying"
            flag = "YES" if cyc.violation else "no"
            print(f"  {p:>6.4f}  {cyc.measurement_cost:>10.5f}  {cyc.net_extracted:>+9.5f}"
                  f"  {flag:>4}   ({tag})")
    p_star = cycle_zero_crossing(E_MAX, 400.0, BETA)
    print(f"\nthe stable-memory cycle breaks even at p_err = {p_star:.4f}: any")
    print("better memory, run for free, would be a working perpetuum mobile --")
    print("which is exactly why stable-but-free memories cannot exist.")


if __name__ == "__main__":
    main()
