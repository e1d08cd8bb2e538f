"""Time the set-up of one fresh interpreter and print it in seconds.

Set-up is importing ``rank2chev``, parsing both data files and building
every module's representation at the given primes:

    PYTHONPATH=src python3 perfbench/setup_probe.py 2,3,5
"""

import sys
import time


def main(primes: str) -> None:
    start = time.perf_counter()
    from rank2chev import chevrep, cli, subgrp, witness  # noqa: F401  (cli imports every module)
    from rank2chev.exactalg import PrimeField
    from rank2chev.rootdata import GroupId

    subgrp.load_case_rows()
    witness.load_witness_rows()
    fields = [PrimeField(int(p)) for p in primes.split(",")]
    for group in GroupId:
        for module in chevrep.all_modules(group):
            for field in fields:
                chevrep.build_rep(group, module, field)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
