"""Pin the SHA-256 of each workload's contaminated log and truth CSV.

    python3 bench/pin_digests.py [FIRST_SEED LAST_SEED]

Writes digests.json next to this file for every ``--seed`` value from
FIRST_SEED to LAST_SEED (default 0 to 63), keyed by the generate and inject
seeds. The run checks each operation's inputs against these digests, so
injection has to stay bit-exact: re-pin only when a workload's definition in
workloads.py changes, never to make a changed package pass.
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import ocelad  # noqa: E402
from checks import DIGESTS_PATH, sha256  # noqa: E402
from workloads import WORKLOADS, Seeds, contaminate  # noqa: E402


def contaminated(workload, seeds):
    clean = ocelad.generate(workload.gen_config(ocelad, seeds.generate))
    log, truth = contaminate(ocelad, clean, seeds.inject)
    return ocelad.write_ocel_json(log), truth.to_csv().encode("utf-8")


def main(argv):
    first, last = (int(value) for value in argv) if argv else (0, 63)
    pins = {}
    for workload in WORKLOADS.values():
        pins[workload.name] = {}
        for seed in range(first, last + 1):
            seeds = Seeds.from_seed(seed)
            log_bytes, truth_csv = contaminated(workload, seeds)
            pins[workload.name][seeds.key()] = {"log": sha256(log_bytes), "truth": sha256(truth_csv)}
            print(workload.name, seeds.key(), flush=True)
    DIGESTS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
