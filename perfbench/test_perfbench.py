"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They cover the generator's determinism, that every checker rejects a
corrupted answer or one that decides less than designed, the host-speed
scaling, the compare verdicts, a smoke run of every workload, the exit code
of a run with failed operations, and the refusal to run without gpq's
sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def jobs_for(workload, ops):
    return run.Fresh(workload, ops)()[1]


def gpq_errors():
    return sys.modules["gpq.errors"]


def first_answer(job):
    ans = job.call()
    assert job.check(ans, None) is None
    return ans


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for name in workloads.WORKLOADS:
            a, da = run.generate(name, 7)
            b, db = run.generate(name, 7)
            self.assertEqual(da, db, name)
            self.assertEqual(json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True))

    def test_other_seed_other_operations(self):
        for name in ("ball-build", "null-homotopy", "presentation-calculus"):
            a, da = run.generate(name, 7)
            _, db = run.generate(name, 8)
            self.assertNotEqual(da, db, name)
            self.assertFalse(any(op in a["timed"] for op in a["warmup"]), name)

    def test_percentile_workloads_have_100_operations(self):
        for name in ("ball-build", "null-homotopy", "presentation-calculus"):
            self.assertGreaterEqual(len(run.generate(name, 1)[0]["timed"]), run.MIN_OPS_FOR_PERCENTILES)


class CheckerTest(unittest.TestCase):
    def test_ball_with_a_vertex_dropped(self):
        (job,) = jobs_for("ball-build", [{"kind": "sphere", "group": "z2", "r": 3, "base": [[0, 1]]}])
        ball = first_answer(job)
        bad = dataclasses.replace(ball, vertices=ball.vertices[:-1], distances=ball.distances[:-1])
        self.assertIsNotNone(workloads._check_ball("z2", ((0, 1),), 3, bad, True, {}))

    def test_ball_vertex_naming_another_element(self):
        (job,) = jobs_for("ball-build", [{"kind": "ball", "group": "bs12", "r": 2, "base": []}])
        ball, lcs = first_answer(job)
        swapped = (ball.vertices[1],) + ball.vertices[1:]
        bad = dataclasses.replace(ball, vertices=swapped)
        self.assertIsNotNone(job.check((bad, lcs), None))

    def test_witness_with_a_move_removed(self):
        loop = [[0, 1], [1, 1], [0, -1], [1, -1]] * 2
        (job,) = jobs_for("null-homotopy", [{"kind": "search", "group": "z2", "loop": loop, "cap": 400, "expect": "certify"}])
        wit = first_answer(job)
        slides = [k for k, m in enumerate(wit.moves) if m.kind == "relator"]
        self.assertEqual(len(slides), 2)
        for k in slides:
            bad = dataclasses.replace(wit, moves=wit.moves[:k] + wit.moves[k + 1 :])
            self.assertIsNotNone(job.check(bad, None), k)

    def test_search_deciding_less_than_designed(self):
        loop = [[0, 1], [1, 1], [0, -1], [1, -1]]
        op = {"kind": "search", "group": "z2", "loop": loop, "cap": 400, "expect": "certify"}
        certify, exhaust = jobs_for("null-homotopy", [op, dict(op, cap=10, expect="exhausted")])
        Exhausted = gpq_errors().Exhausted
        self.assertIsNotNone(certify.check(None, Exhausted("cap", states_explored=400)))
        self.assertIsNone(exhaust.check(None, Exhausted("cap", states_explored=10)))
        self.assertIsNotNone(exhaust.check(None, Exhausted("cap", states_explored=3)))

    def test_kill_radius_other_than_designed(self):
        op = {"kind": "kill", "group": "z2", "r": 1, "r_max": 2, "cap": 60, "expect": 1}
        (job,) = jobs_for("null-homotopy", [op])
        self.assertEqual(first_answer(job), 1)
        self.assertIsNotNone(job.check(2, None))
        self.assertIsNotNone(job.check(None, gpq_errors().Exhausted("cap")))

    def test_wrong_level_histogram(self):
        (job,) = jobs_for("grigorchuk-verify", [{"kind": "grid", "max_n": 8}])
        reports = [SimpleNamespace(level="dihedral")] * 256
        good = SimpleNamespace(total=256, equal=256, by_level={"dihedral": 248, "free": 8})
        self.assertIsNone(job.check((reports, good), None))
        for levels in ({"dihedral": 256}, {"dihedral": 247, "free": 9}, {"dihedral": 248, "klein": 8}):
            bad = SimpleNamespace(total=256, equal=256, by_level=levels)
            self.assertIsNotNone(job.check((reports, bad), None), levels)
        short = SimpleNamespace(total=256, equal=255, by_level={"dihedral": 247, "free": 8, "unequal": 1})
        self.assertIsNotNone(job.check((reports, short), None))

    def test_reduction_with_a_wrong_result(self):
        (job,) = jobs_for("null-homotopy", [{"kind": "reduce", "system": "z2", "word": [[1, 1], [0, 1], [1, -1]]}])
        nf, trace = first_answer(job)
        bad = dataclasses.replace(nf, letters=nf.letters + ((1, 1),))
        self.assertIsNotNone(job.check((bad, trace), None))

    def test_tietze_trace_ending_elsewhere(self):
        data, _ = run.generate("presentation-calculus", 3, smoke=True)
        op = next(op for op in data["timed"] if op["kind"] == "tietze")
        (job,) = jobs_for("presentation-calculus", [op])
        final, back = first_answer(job)
        bad = dataclasses.replace(final, relators=final.relators[:-1])
        self.assertIsNotNone(job.check((bad, back), None))
        self.assertIsNotNone(job.check((final, final), None))

    def test_decode_returning_another_source(self):
        data, _ = run.generate("presentation-calculus", 3, smoke=True)
        op = next(op for op in data["timed"] if op["kind"] == "decode")
        (job,) = jobs_for("presentation-calculus", [op])
        src = first_answer(job)
        bad = dataclasses.replace(src, letters=src.letters[:-1])
        self.assertIsNotNone(job.check(bad, None))

    def test_pinch_result_with_a_letter_changed(self):
        data, _ = run.generate("presentation-calculus", 3)
        ops = [op for op in data["timed"] if op["kind"] == "pinch"]
        (job,) = jobs_for("presentation-calculus", [ops[1]])
        out, steps = first_answer(job)
        bad = dataclasses.replace(out, letters=out.letters + ((0, 1),))
        self.assertIsNotNone(job.check((bad, steps), None))

    def test_stuck_pinch_that_could_reduce(self):
        data, _ = run.generate("presentation-calculus", 3)
        op = next(op for op in data["timed"] if op["kind"] == "pinch" and not op["stuck"])
        # The word starts with an expansion t u t^-1, which always applies.
        stuck = SimpleNamespace(word=SimpleNamespace(letters=workloads._letters(op["word"])), trace=())
        for op in (op, dict(op, stuck=True)):
            (job,) = jobs_for("presentation-calculus", [op])
            self.assertIsNotNone(job.check(None, stuck), op["stuck"])

    def test_printed_document_differs(self):
        data, _ = run.generate("presentation-calculus", 3, smoke=True)
        op = next(op for op in data["timed"] if op["kind"] == "print")
        (job,) = jobs_for("presentation-calculus", [op])
        text = first_answer(job)
        self.assertIsNotNone(job.check(text.replace(";", " ;", 1), None))


class HostSpeedTest(unittest.TestCase):
    def test_times_scale_by_the_probes_around_them(self):
        ref = run.PROBE_REF_S
        probes = iter([0.5 * ref, 1.5 * ref, ref])
        clock = iter([0.0, 1.0, 1.0, 4.0, 4.0, 4.5, 6.5, 6.6])
        left_out = []
        with mock.patch.object(run, "probe", lambda: next(probes)), mock.patch.object(run.time, "perf_counter", lambda: next(clock)):
            times = run.Scaled()
            times.on_probe = left_out.append
            times.start()
            times.stop()  # operation 0: 1 s
            times.start()
            times.close()  # operation 1 cut after 3 s; probes 0.5 and 1.5 x the reference: their mean is the reference
            times.stop()  # 2 s more, after a probe of 0.5 s that is left out
            times.close()  # probes 1.5 and 1 x the reference: the host ran at 0.8 x its speed
        self.assertEqual(times.raw, [1.0, 5.0])
        self.assertEqual(left_out, [0.5])
        for got, want in zip(times.scaled, [1.0, 3.0 + 1.6]):
            self.assertAlmostEqual(got, want)

    def test_probe_time_is_left_out_of_open_spans(self):
        t = tracer.Tracer()
        t.span_start.extend([1.0, 2.0, 3.0])
        t._stack += [0, 2]
        t.leave_out(0.5)
        self.assertEqual(list(t.span_start), [1.5, 2.0, 3.5])


class SpecTest(unittest.TestCase):
    def test_every_per_layer_metric_is_computed(self):
        t = tracer.Tracer()
        t.counts.update({"balls.vertex_dirs": 0, "balls.vertices.n": 0, "balls.states_explored.n": 0})
        t.counts.update({"balls.witnesses": 0, "rewriting.steps.n": 0, "endo.sigma_decode.letters": 0})
        names = [m["name"] for m in run.spec()["per_layer"]]
        values = metrics.layer_metrics(t, names, 1, 1.0, 1.0)
        self.assertLessEqual(set(names), set(values))
        for name in names:
            self.assertTrue(metrics.effect(name), name)

    def test_compare_verdicts(self):
        spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}

        def results(values):
            return [
                {"workload": "w", "seed": i, "trace": 0, "result": {"correct": v > 0, "metrics": {"wall_s": {"value": abs(v), "unit": "s"}}}}
                for i, v in enumerate(values)
            ]

        base = results([1.0, 1.01, 0.99, 1.0])
        verdict = lambda new: compare.compare(base, results(new), spec)[0][-1]  # noqa: E731
        self.assertEqual(verdict([1.02, 1.0, 1.01, 1.03]), "within bound")
        self.assertEqual(verdict([1.3, 1.31, 1.29, 1.3]), "REGRESSION")
        self.assertEqual(verdict([0.5, 1.5, 0.7, 1.4]), "unresolved")
        self.assertEqual(verdict([0.5, 0.6, 0.7, 0.52]), "better")
        # Incorrect runs (here the negative ones) are left out.
        self.assertEqual(verdict([1.02, 1.0, 1.01, 1.03, -0.1, -0.1, -0.1, -0.1, -0.1]), "within bound")


class EndToEndTest(unittest.TestCase):
    def test_smoke_runs_every_workload(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_failed_operations_give_a_nonzero_exit(self):
        with mock.patch.dict(workloads.GRID_LEVELS, {3: {"dihedral": 96}}), contextlib.redirect_stdout(io.StringIO()) as out:
            with contextlib.redirect_stderr(io.StringIO()):
                code = run.run_workload("grigorchuk-verify", 1, 0, 0, True, run.spec())
        self.assertEqual(code, 1)
        self.assertEqual(json.loads(out.getvalue().splitlines()[-1])["correct"], False)

    def test_traced_counts_repeat_between_runs(self):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "null-homotopy", "--seed", "11", "--trace", "1", "--smoke"]
        results = []
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        counts = [metrics.repeat_counts({k: m["value"] for k, m in r["metrics"].items()}) for r in results]
        self.assertEqual(counts[0], counts[1])
        self.assertTrue(all(r["correct"] for r in results))

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            cmd = [sys.executable, "perfbench/run.py", "--workload", "ball-build", "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
