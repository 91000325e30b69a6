"""Tables of result sets, and the comparison of two of them.

A result set is what ``run.py --all --out FILE`` writes: a list of
``{"workload", "seed", "trace", "result"}`` entries, ``result`` being a run's
last stdout line.  ``compare_files`` prints, per workload and metric, the
base median, the new median, their ratio, the metric's bound and the spread
(interquartile range over median) of each side.  Where a spread is wider than
the bound the metric is unresolved, unless every new run beats every base
run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _values(results, trace):
    """{workload: {metric: ([values], unit)}} over the correct runs."""
    out = defaultdict(lambda: defaultdict(lambda: ([], "")))
    for entry in results:
        res = entry["result"]
        if entry["trace"] != trace or not res or not res["correct"]:
            continue
        for name, m in res["metrics"].items():
            vals, _ = out[entry["workload"]][name]
            vals.append(m["value"])
            out[entry["workload"]][name] = (vals, m["unit"])
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def print_table(results):
    failed = defaultdict(lambda: [0, 0])
    for entry in results:
        if entry["result"]:
            failed[entry["workload"]][0] += entry["result"]["failed"]
            failed[entry["workload"]][1] += entry["result"]["attempted"]
    for trace, title in ((0, "end to end (median over runs)"), (1, "per layer (traced run)")):
        print(f"\n== {title}")
        for workload, table in _values(results, trace).items():
            print(f"-- {workload}")
            for name, (vals, unit) in table.items():
                print(f"   {name:42s} {statistics.median(vals):>14.6g} {unit:6s} n={len(vals)}")
            if trace == 0:
                f, a = failed[workload]
                print(f"   {'failed_ratio':42s} {f / a if a else 0:>14.6g} {'ratio':6s} {f} of {a}")


def compare(base, new, spec):
    """Rows of (workload, metric, unit, base median, new median, ratio, bound,
    base spread, new spread, verdict)."""
    rows = []
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    for trace in (0, 1):
        b_all, n_all = _values(base, trace), _values(new, trace)
        for workload in b_all:
            for name, (bvals, unit) in b_all[workload].items():
                nvals = n_all.get(workload, {}).get(name, ([], unit))[0]
                if not nvals:
                    continue
                bmed, nmed = statistics.median(bvals), statistics.median(nvals)
                ratio = nmed / bmed if bmed else float("nan")
                sb, sn = spread(bvals), spread(nvals)
                m = bounds.get(name)
                if trace == 1 or m is None:
                    rows.append((workload, name, unit, bmed, nmed, ratio, None, sb, sn, ""))
                    continue
                bound, lower = m["bound"], m["better"] == "lower"
                worse = (ratio - 1.0) if lower else (1.0 - ratio)
                all_better = (max(nvals) < min(bvals)) if lower else (min(nvals) > max(bvals))
                if max(sb, sn) > bound:
                    verdict = "better" if all_better else "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                elif -worse > bound:
                    verdict = "better"
                else:
                    verdict = "within bound"
                rows.append((workload, name, unit, bmed, nmed, ratio, bound, sb, sn, verdict))
    return rows


def compare_files(base_path, new_path, spec):
    base = json.load(open(base_path))["results"]
    new = json.load(open(new_path))["results"]
    rows = compare(base, new, spec)
    print(f"{'workload':22s} {'metric':40s} {'base':>12s} {'new':>12s} {'ratio':>8s} {'bound':>6s} {'spread b/n':>13s}  verdict")
    for w, name, unit, bmed, nmed, ratio, bound, sb, sn, verdict in rows:
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{w:22s} {name:40s} {bmed:>10.5g}{unit[:2]:>2s} {nmed:>10.5g}{unit[:2]:>2s} {ratio:>8.3f} {b:>6s} {sb:>6.3f}/{sn:<6.3f}  {verdict}")
    failed = sum(e["result"]["failed"] if e["result"] else 1 for e in new)
    if failed:
        print(f"new result set has {failed} failed operations")
    return 1 if failed or any(r[-1] == "REGRESSION" for r in rows) else 0
