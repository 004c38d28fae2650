"""Write expected.json: every benchmark operation's report rows, or the
exception it raises, as the current code produces them.

Run from the repository root, only on the code the gate is meant to
protect (the benchmark's expected values are not refreshed after a change
to the program)::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import random

import run


def main() -> None:
    run._import_program()
    import workloads
    run.OUT.mkdir(exist_ok=True)
    operations = {}
    for name in workloads.WORKLOADS:
        ops = workloads.build(name)
        outcomes = run.run_pass(ops, random.Random(0)).outcomes
        for op in ops:
            outcome = outcomes[op.key]
            if isinstance(outcome, Exception):
                uncorrected = op.key.removesuffix("/corrected")
                if uncorrected not in outcomes:
                    raise outcome
                operations[op.key] = {"raises": type(outcome).__name__,
                                      "message": str(outcome),
                                      "no_worse_than": uncorrected}
                continue
            factor = 2 if op.config.corrected and not op.time_dependent else 1
            operations[op.key] = {
                "beta": workloads.BETA, "grid_factor": factor,
                "rows": [[r.M, r.err_max, r.err_l2]
                         for r in outcome.rows]}
    # one operation per line; rows are (M, err_max, err_l2) and the error
    # is measured on the grid grid_factor * M
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}"
             for key, value in operations.items()]
    (run.HERE / "expected.json").write_text(
        '{"operations": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main()
