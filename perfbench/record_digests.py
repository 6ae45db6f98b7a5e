"""Record the pipeline byte oracle: sha256 digests of the seed-independent
outputs (Fan JSON, type cone JSON, abhy text and ROFF) of every ladder rung.

    python3 perfbench/record_digests.py

Run it from the root of a source checkout whose outputs are known to be
right; it rewrites perfbench/digests.json.
"""

import json
import shutil
import sys
from fractions import Fraction

import bench_inputs as bi
import bench_workloads as bw
from run import HERE, OUT, SRC, import_fanforge


def main():
    import_fanforge()
    workdir = OUT / "record-digests"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = {}
    try:
        for type_, n, abhy in bi.LADDER:
            m = bi.expected_counts(type_, n)[1] - n
            cli = bw.SubprocessCLI(SRC)
            digests.update(bw.pipeline_chain(cli, workdir, (type_, n, abhy), [Fraction(1)] * m))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests", file=sys.stderr)


if __name__ == "__main__":
    main()
