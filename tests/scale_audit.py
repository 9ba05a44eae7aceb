"""The spread audit's report at scale: the default family, aggregation,
and C_hat plus the CSV.

Not a pytest module (the name does not match test_*.py), so tier-1 does
not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/scale_audit.py [--n 1280] [--D 128] [--samples 1000]

The family is `audit_set_family(n, D+1, seed, "singletons+pairs")`:
n(D+1) singletons and 10n pairs, 177,920 sets at the defaults.  The
script also builds `oracles.set_family_reference`, the per-candidate
loop that the keyed blocks replaced, at the same n, D and seed, prints
its time next to the family's, and exits 1 if the two families differ.
The samples are uniform random colors in 1..D+1 from one seeded
Generator, drawn before any timing starts; the report does not need
proper colorings.  The script prints the time of each of the three
steps, the process's peak resident set size (ru_maxrss), C_hat and the
sha256 of the CSV, so two versions of the report can be compared on
equal output.
"""
from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time

import numpy as np

from spreadcolor.audit import audit_set_family, spread_report_from_samples

from oracles import set_family_reference


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=1280)
    ap.add_argument("--D", type=int, default=128)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    palette = args.D + 1
    rng = np.random.default_rng(args.seed)
    samples = [rng.integers(1, palette + 1, size=args.n) for _ in range(args.samples)]

    t0 = time.perf_counter()
    sets = audit_set_family(args.n, palette, args.seed)
    t1 = time.perf_counter()
    rep = spread_report_from_samples(samples, args.n, palette, sets)
    t2 = time.perf_counter()
    c_hat = rep.c_hat
    csv_text = rep.to_csv()
    t3 = time.perf_counter()
    # read before the reference family adds its own sets
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    t4 = time.perf_counter()
    reference = set_family_reference(args.n, palette, args.seed)
    t5 = time.perf_counter()
    same = sets == reference

    print(
        f"n={args.n} D={args.D}: {len(sets)} sets, {args.samples} samples; "
        f"family {t1 - t0:.2f} s, aggregation {t2 - t1:.2f} s, "
        f"c_hat + CSV {t3 - t2:.2f} s; peak RSS {peak_mb:.0f} MB"
    )
    print(f"c_hat {c_hat!r}, CSV sha256 {hashlib.sha256(csv_text.encode()).hexdigest()}")
    print(
        f"family {t1 - t0:.2f} s, per-candidate reference {t5 - t4:.2f} s: "
        f"{'match' if same else 'MISMATCH'}"
    )
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
