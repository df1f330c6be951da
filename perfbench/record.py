"""Record the golden digests every benchmark run is checked against.

    python3 perfbench/record.py

Runs every task of every pool once (library tasks in this process, CLI
queries each in a fresh interpreter), refuses any query that exits non-zero,
cross-checks results against the independent routes the library ships, and
writes ``goldens.json``.  Record from the commit the benchmark is defined
on; a later commit that changes an output must not re-record to pass.

Cross-checks: Kronecker coefficients of size at most 6 against
``kron_schur_oracle``, and plethysm expansions of degree at most
CROSS_CHECK_DEGREE against ``symfunc.plethysm_compose``.
"""

import json
import os
import subprocess
import sys
import time

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

from artifact import kronecker, partitions, symfunc  # noqa: E402

CROSS_CHECK_DEGREE = 9


def _composed(outer, inner):
    """Schur coefficients of s_outer[s_inner] by direct substitution."""
    nvars = max(1, sum(outer) * len(inner))
    return symfunc.to_schur_basis(symfunc.plethysm_compose(outer, inner, nvars)).coeffs


def _check(ok, what):
    if not ok:
        raise SystemExit("cross-check failed: %s" % what)


def cross_check_library(task, result):
    kind, *args = task
    if kind == "kron_table" and args[0] <= 6:
        for lam, mu, nu, g in result:
            _check(kronecker.kron_schur_oracle(lam, mu, nu) == g, task)
        return 1
    if kind == "hn" and args[0] * args[1] <= CROSS_CHECK_DEGREE:
        d, n = args
        _check(_composed((d,), (n,)) == result, task)
        return 1
    if kind == "pleth":
        inner, outer = (tuple(p) for p in args)
        if sum(inner) * sum(outer) <= CROSS_CHECK_DEGREE:
            want = _composed(outer, inner)
            _check(all(want.get(lam, 0) == c for lam, c in result), task)
            return 1
    return 0


def cross_check_cli(task, stdout):
    command, *args = task[1:]
    if command == "kron":
        lam, mu, nu = (partitions.parse_partition(a) for a in args)
        if sum(lam) <= 6:
            _check(kronecker.kron_schur_oracle(lam, mu, nu) == int(stdout), task)
            return 1
    if command == "pleth":
        target, inner, outer = (partitions.parse_partition(a) for a in args)
        if sum(target) <= CROSS_CHECK_DEGREE:
            _check(_composed(outer, inner).get(target, 0) == int(stdout), task)
            return 1
    if command == "pleth-hn":
        d, n = map(int, args)
        if d * n <= CROSS_CHECK_DEGREE:
            got = {}
            for line in stdout.decode().splitlines():
                shape, _, coeff = line.partition(": ")
                got[partitions.parse_partition(shape)] = int(coeff)
            _check(_composed((d,), (n,)) == got, task)
            return 1
    return 0


def main():
    env_path = str(workloads.ROOT / "src")
    digests = {}
    checked = 0
    for workload in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            for task in workloads.pool(workload, scale):
                key = workloads.key(task)
                if key in digests:
                    continue
                start = time.perf_counter()
                if task[0] == "cli":
                    proc = subprocess.run(
                        [sys.executable, str(workloads.HERE / "cli_entry.py"), *task[1:]],
                        cwd=workloads.ROOT, capture_output=True,
                        env=dict(os.environ, PYTHONPATH=env_path),
                    )
                    if proc.returncode != 0:
                        raise SystemExit("%s exited %d: %s" % (key, proc.returncode, proc.stderr))
                    checked += cross_check_cli(task, proc.stdout)
                    digests[key] = workloads.cli_digest(proc.returncode, proc.stdout)
                else:
                    result = workloads.run_task(task, workloads.plain)
                    checked += cross_check_library(task, result)
                    digests[key] = workloads.digest(workloads.canonical(result))
                seconds = time.perf_counter() - start
                print("%8.3f s  %s  %s" % (seconds, digests[key][:12], key), flush=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                          capture_output=True, text=True).stdout.strip()
    with open(workloads.GOLDENS, "w") as fh:
        json.dump({"recorded_from": head or None, "digests": dict(sorted(digests.items()))},
                  fh, indent=1)
        fh.write("\n")
    print("%d digests, %d cross-checked against an independent route" % (len(digests), checked))


if __name__ == "__main__":
    main()
