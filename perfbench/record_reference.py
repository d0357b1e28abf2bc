"""Record the audit answers that the ``paper`` workload checks against.

Run from the repository root:  python3 perfbench/record_reference.py
It writes perfbench/paper_reference.json: for each audit suite, the rows'
answer fields (instance, t, r, tag, kind, formula, constructed, oracle,
status).  The committed file was recorded at the commit the benchmark
was defined on; re-record only when a change to the answers is intended.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import HERE, PAPER_SUITES, audit_answers, run_quietly  # noqa: E402


def main() -> None:
    reference = {}
    for suite in PAPER_SUITES:
        reference[suite] = audit_answers(
            run_quietly(["audit", "--suite", suite, "--json"], ok_codes=(0, 3)))
    suites = [f'{json.dumps(suite)}: [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]"
              for suite, rows in reference.items()]
    with open(os.path.join(HERE, "paper_reference.json"), "w") as handle:
        handle.write("{\n" + ",\n".join(suites) + "\n}\n")


if __name__ == "__main__":
    main()
