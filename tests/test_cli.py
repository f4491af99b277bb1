"""Command line behavior: reports, verdicts, exit codes, output formats."""

import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from fuzzers import benchmark_text

import clploop
from clploop import __version__, analyzer, cli, engine, parse_program, parse_query
from clploop.cli import main
from clploop.engine import derivation_step
from clploop.linarith import ResourceLimitError, max_dnf
from clploop.syntax import Query

SHIFT_GE = "p(X1, X2) <- X1 >= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\n"
SHIFT_LE = "p(X1, X2) <- X1 <= X2, Y1 = X1 + 1, Y2 = X2 <> p(Y1, Y2).\n"
PAIR = (
    "p(A) <- A = B + 1, B >= 0 <> p(B).\n"
    "q(Z) <- Z <= 5 <> p(W).\n"
)


def rule_file(tmp_path, text, name="rules.clp"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAnalyzeText:
    def test_golden_report(self, corpus_path, golden_dir, capsys):
        assert main(["analyze", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        assert out == (golden_dir / "demo.txt").read_text(encoding="utf-8")

    def test_deterministic(self, corpus_path, capsys):
        assert main(["analyze", str(corpus_path)]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", str(corpus_path)]) == 0
        assert capsys.readouterr().out == first

    def test_empty_program(self, tmp_path, capsys):
        path = rule_file(tmp_path, "")
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert out == "0 clauses: 0 looping, 0 none found\n"

    def test_verify_steps_zero_marks_not_run(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_GE)
        assert main(["analyze", path, "--verify-steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "(not run)" in out
        assert "verified" not in out

    def test_first_only_prunes_results(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A, B) <- A >= 1, A = C + 1, B = D <> p(C, D).\n")
        assert main(["analyze", path]) == 0
        full = capsys.readouterr().out
        assert main(["analyze", path, "--first-only"]) == 0
        pruned = capsys.readouterr().out
        assert full.count("tau:") == 2
        assert pruned.count("tau:") == 1

    def test_propagated_section(self, tmp_path, capsys):
        path = rule_file(tmp_path, PAIR)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "propagated:" in out
        assert "clause 2: <q(Z) | Z <= 5>  via <p(A) | A - B = 1, B >= 0>" in out

    def test_no_propagate(self, tmp_path, capsys):
        path = rule_file(tmp_path, PAIR)
        assert main(["analyze", path, "--no-propagate"]) == 0
        out = capsys.readouterr().out
        assert "propagated:" not in out

    def test_trace_prints_the_verification_run(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A) <- A = B + 1, B >= 0 <> p(B).\n")
        assert main(["analyze", path, "--verify-steps", "100", "--trace"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(
            "trace for <p(A) | A >= 1> (clause 1, tau {}):\n"
            "  step 1: clause 1 |- <p(B#1) | B#1 >= 0>\n"
            "  step 2: clause 1 |- <p(B#2) | B#2 >= 0>\n"
            "  steps 3..100 not executed: step 2 is a variant of step 1 (period 1)\n")

    def test_trace_numbers_steps_by_the_clause_in_the_program(self, tmp_path, capsys):
        # the witness of clause 2 is re-run on that clause alone; its steps
        # still name clause 2
        path = rule_file(tmp_path, "q(A) <- A = B <> q(B).\n"
                                   "p(A) <- A = B + 1, B >= 0 <> p(B).\n")
        assert main(["analyze", path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(
            "trace for <p(A) | A >= 1> (clause 2, tau {}):\n"
            "  step 1: clause 2 |- <p(B#1) | B#1 >= 0>\n"
            "  step 2: clause 2 |- <p(B#2) | B#2 >= 0>\n"
            "  steps 3..100 not executed: step 2 is a variant of step 1 (period 1)\n")
        assert "  step 1: clause 1 |- <q(B#1) | B#1 = 0>\n" in out

    def test_trace_skips_a_witness_that_was_not_run(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A) <- A = B + 1, B >= 0 <> p(B).\n")
        assert main(["analyze", path, "--verify-steps", "0"]) == 0
        report = capsys.readouterr().out
        assert main(["analyze", path, "--verify-steps", "0", "--trace"]) == 0
        out = capsys.readouterr().out
        assert out == report
        assert "witness: <p(A) | A >= 1>  (not run)" in out

    def test_trace_lists_each_witness_run(self, corpus_path, capsys):
        assert main(["analyze", str(corpus_path), "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 203
        assert sum(line.startswith("trace for ") for line in lines) == 23
        assert sum(line.startswith("  step ") for line in lines) == 51
        assert sum(" not executed: " in line for line in lines) == 23
        assert sum(" contains the image of " in line for line in lines) == 5


class TestAnalyzeJson:
    def test_golden_report(self, corpus_path, golden_dir, capsys):
        assert main(["analyze", str(corpus_path), "--json"]) == 0
        out = capsys.readouterr().out
        assert out == (golden_dir / "demo.json").read_text(encoding="utf-8")

    def test_payload_shape(self, tmp_path, capsys):
        path = rule_file(tmp_path, PAIR)
        assert main(["analyze", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == __version__
        assert len(data["clauses"]) == 2
        first = data["clauses"][0]
        assert first["status"] == "looping"
        assert first["results"][0]["tau"] == []
        assert first["results"][0]["verified_steps"] == 100
        assert first["classes"] == [[]]
        assert first["errors"] == []
        assert data["propagated"] == [
            {
                "clause": 2,
                "head_query": "<q(Z) | Z <= 5>",
                "via": "<p(A) | A - B = 1, B >= 0>",
            }
        ]

    def test_text_and_json_agree(self, corpus_path, capsys):
        assert main(["analyze", str(corpus_path)]) == 0
        text = capsys.readouterr().out
        assert main(["analyze", str(corpus_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for clause in data["clauses"]:
            if clause["status"] == "looping":
                for res in clause["results"]:
                    assert f"delta: {res['delta']}" in text
                    assert f"witness: {res['witness']}" in text
            else:
                assert "none found" in text
        statuses = [c["status"] for c in data["clauses"]]
        assert f"{len(statuses)} clauses: {statuses.count('looping')} looping, " \
               f"{statuses.count('none found')} none found" in text


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A) <- A * A >= 1 <> p(B).\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nonlinear" in err

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        rhs = "(" * 500 + "B" + ")" * 500
        path = rule_file(tmp_path, f"p(A) <- A = {rhs} <> p(B).\n")
        assert main(["analyze", path]) == 2
        assert "nested deeper than" in capsys.readouterr().err

    def test_invalid_utf8_is_a_positioned_parse_error(self, tmp_path, corpus_path, capsys):
        # the column counts characters, the line follows any newline
        # convention, and a byte in a comment counts as well
        for data, where in ((b"p(A) <- A >= 0 \xff <> p(B).\n", "1:16: invalid UTF-8 byte 0xff"),
                            (b"p(A) <- A >= 0,\r\n  B = \xc3\xa9 \xc3( <> p(B).\n",
                             "2:9: invalid UTF-8 byte 0xc3"),
                            (b"# \xe9\np(A) <- A = B <> p(B).\n", "1:3: invalid UTF-8 byte 0xe9")):
            path = tmp_path / "rules.clp"
            path.write_bytes(data)
            assert main(["analyze", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {where}\n"
        # the command line decodes the byte 0xff of a --query the same way
        query = b"p1(\xff)".decode("utf-8", "surrogateescape")
        assert main(["check", str(corpus_path), "--query", query]) == 2
        assert capsys.readouterr().err == "error: 1:4: invalid UTF-8 byte 0xff\n"

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # positions count from the first visible character; a U+FEFF
        # anywhere else is still an unexpected character
        bom = "\ufeff".encode()
        plain = rule_file(tmp_path, PAIR, "plain.clp")
        marked = tmp_path / "marked.clp"
        marked.write_bytes(bom + PAIR.encode())
        for flags in ([], ["--json"]):
            assert main(["analyze", plain, *flags]) == 0
            expected = capsys.readouterr().out
            assert main(["analyze", str(marked), *flags]) == 0
            assert capsys.readouterr().out == expected
        for data, where in (
                (bom + b"p(A) <- A = B \xff<> p(B).\n", "1:15: invalid UTF-8 byte 0xff"),
                (bom * 2 + PAIR.encode(), "1:1: unexpected character '\\ufeff'"),
                (b"p(A) <- A = B" + bom + b" <> p(B).\n",
                 "1:14: unexpected character '\\ufeff'")):
            marked.write_bytes(data)
            assert main(["analyze", str(marked)]) == 2
            assert capsys.readouterr().err == f"error: {where}\n"

    def test_overlong_integer_literal_is_a_parse_error(self, tmp_path, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no int-string limit")
        fits, over = "9" * limit, "1" + "0" * limit
        assert parse_program(f"p(A) <- A = {fits} <> p(B).")
        assert parse_query(f"p(X, 0) : X = 1/{fits}", parse_program(SHIFT_GE))
        for literal in (over, f"1/{over}", f"{over}/3"):
            path = rule_file(tmp_path, f"p(A) <- A = {literal} <> p(B).\n")
            assert main(["analyze", path]) == 2
            assert capsys.readouterr().err == (
                f"error: 1:13: integer literal too long ({limit + 1} digits)\n")
        path = rule_file(tmp_path, SHIFT_GE)
        assert main(["check", path, "--query", f"p({over}, 0)"]) == 2
        assert capsys.readouterr().err == (
            f"error: 1:3: integer literal too long ({limit + 1} digits)\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_derived_number_past_the_int_string_limit_is_exit_3(self, tmp_path, capsys,
                                                                 flags):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no int-string limit")
        # the literal fits the limit; the witness's A = K*K does not
        k = "7" * (limit // 2 + 2)
        path = rule_file(tmp_path, f"p(A) <- A = {k}*B, B >= {k} <> p(B).\n")
        assert main(["analyze", path, "--verify-steps", "0", *flags]) == 3
        assert capsys.readouterr().err == (
            "error: a derived number exceeds the interpreter's int-string "
            f"limit ({limit} digits)\n")

    def test_other_value_errors_surface(self, tmp_path, monkeypatch):
        def fail(*args):
            raise ValueError("not a conversion")
        monkeypatch.setattr(cli, "analyze_program", fail)
        with pytest.raises(ValueError, match="not a conversion"):
            main(["analyze", rule_file(tmp_path, SHIFT_GE)])

    def test_missing_file(self, capsys):
        assert main(["analyze", "/no/such/file.clp"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_witness_is_the_subsets_error(self, tmp_path, capsys,
                                                  monkeypatch):
        # the first witness run (clause 1's) stops 3 steps short; clause 2
        # and the rest of the report are still produced, and the exit is 3
        text = SHIFT_GE + "q(A) <- A = B + 1, B >= 0 <> q(B).\n"
        path = rule_file(tmp_path, text)
        real_run, runs = analyzer.run, []

        def short_first_run(q, program, max_steps, **kwargs):
            state = real_run(q, program, max_steps, **kwargs)
            runs.append(q)
            if len(runs) == 1:
                state = state._replace(steps=state.steps - 3)
            return state

        monkeypatch.setattr(analyzer, "run", short_first_run)
        report = analyzer.analyze_program(parse_program(text))
        first, second = report.reports
        (failed,) = [c for c in first.checks if c.error]
        assert failed.error == (f"witness {runs[0]} failed engine validation "
                                f"after 97 of 100 steps")
        assert failed.head_ok and failed.body_ok and failed.subsumes
        assert not failed.passed and failed.positions not in first.classes
        assert second.status == "looping"
        assert second.results[0].verified_steps == 100
        assert report.had_error

        runs.clear()
        assert main(["analyze", path]) == 3
        out = capsys.readouterr().out
        assert f"  error at tau {{1,2}}: witness {runs[0]} failed engine " \
               f"validation after 97 of 100 steps\n" in out
        assert "clause 2: q(A) <- A = B + 1, B >= 0 <> q(B).\n  tau: {}\n" in out
        assert out.endswith("2 clauses: 1 looping, 1 none found\n")
        runs.clear()
        assert main(["analyze", path, "--json"]) == 3
        clauses = json.loads(capsys.readouterr().out)["clauses"]
        assert clauses[0]["errors"] == [{"tau": [1, 2], "message": failed.error}]
        assert clauses[1]["status"] == "looping"

    @pytest.mark.parametrize("args, message", [
        (["analyze", "--verify-steps", "-1"], "--verify-steps: must be at least 0, got -1"),
        (["analyze", "--max-dnf", "0"], "--max-dnf: must be at least 1, got 0"),
        (["analyze", "--max-dnf", "-1"], "--max-dnf: must be at least 1, got -1"),
        (["analyze", "--max-dnf", "ten"], "--max-dnf: invalid int value: 'ten'"),
        (["check", "--run", "-3"], "--run: must be at least 0, got -3"),
        (["check", "--verify-steps", "-2"], "--verify-steps: must be at least 0, got -2"),
        (["check", "--max-dnf", "0"], "--max-dnf: must be at least 1, got 0"),
    ])
    def test_bad_option_value_is_a_usage_error(self, tmp_path, capsys, args, message):
        path = rule_file(tmp_path, SHIFT_GE)
        command, *options = args
        query = ["--query", "p(0, 0)"] if command == "check" else []
        with pytest.raises(SystemExit) as exc:
            main([command, path, *query, *options])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"clploop {command}: error: argument {message}")

    def test_least_option_values_are_accepted(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_GE)
        assert main(["analyze", path, "--verify-steps", "0", "--max-dnf", "1"]) == 0
        assert capsys.readouterr().out.endswith("1 clause: 1 looping, 0 none found\n")
        assert main(["check", path, "--query", "p(0, 0)", "--run", "0"]) == 0
        assert capsys.readouterr().out == (
            "<p(0, 0) | true>: LOOPS (proved)\n  more general than <p(0, 0) | true>\n")

    def test_resource_limit(self, corpus_path, capsys):
        assert main(["analyze", str(corpus_path), "--max-dnf", "2"]) == 3
        out = capsys.readouterr().out
        assert "resource limit at tau" in out
        # the report is still printed in full
        assert "18 clauses:" in out

    def test_subsets_refuted_by_the_split_raise_no_limit(self, tmp_path, capsys):
        # at --max-dnf 3 the split of this head denotation refutes every
        # subset but {} and the full set within the ceiling, so no head
        # condition's side is built for them.  It decides each crossing atom
        # on conditions at the atom's own positions, so it refutes {2,3} and
        # {1} too, which reach cond({2,3}), over the ceiling, when the split
        # is decided whole.  The head conditions of {} and the full set need
        # no decision, since no atom of their right sides crosses the subset
        path = rule_file(tmp_path, "p(X1, X2, X3) <- X1 >= X2, X1 >= X3, X1 <= X2 + 1, "
                                   "X1 <= X3 + 1, Y1 = X1, Y2 = X2, Y3 = X3 <> p(Y1, Y2, Y3).")
        assert main(["analyze", path, "--max-dnf", "3"]) == 0
        out = capsys.readouterr().out
        assert "resource limit" not in out
        assert "  tau: {1,2,3}\n" in out
        # the seed-7 shift rule at --max-dnf 5: the split refutes 126 of
        # its 128 subsets within the ceiling, and the head conditions of
        # {} and the full set need no decision, so no subset reaches the
        # ceiling (127 did when every head condition was decided on its
        # sides, and then the full set's did)
        path = rule_file(tmp_path, benchmark_text("shift"))
        assert main(["analyze", path, "--max-dnf", "5"]) == 0
        out = capsys.readouterr().out
        assert "resource limit" not in out
        assert "  tau: {1,2,3,4,5,6,7}\n" in out

    def test_a_library_scope_is_the_ceiling_of_the_cli(self, corpus_path,
                                                       corpus_program, capsys):
        # analyze_program runs under the scope its caller opens, as the
        # command does under --max-dnf
        with max_dnf(2):
            report = analyzer.analyze_program(corpus_program)
        assert sum(len(r.errors) for r in report.reports) == 2
        assert report.propagation_error is None
        assert main(["analyze", str(corpus_path), "--max-dnf", "2", "--json"]) == 3
        assert json.loads(capsys.readouterr().out) == cli.report_to_json(report)

    def test_parsing_is_outside_the_ceiling(self, tmp_path, capsys):
        # normalizing the rule eliminates Z from two lower and two upper
        # bounds, more than one conjunct; --max-dnf bounds the analysis only
        text = "p(X, Y) <- Z >= X, Z >= Y, Z <= 1, Z <= 2 <> p(X, Y).\n"
        with pytest.raises(ResourceLimitError, match="exceeds 1 conjuncts"), max_dnf(1):
            parse_program(text)
        assert main(["analyze", rule_file(tmp_path, text), "--max-dnf", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == (
            "clause 1: p(X, Y) <- Z >= X, Z >= Y, Z <= 1, Z <= 2 <> p(X, Y).\n"
            "  none found\n"
            "  resource limit at tau {1,2}: elimination exceeds 1 conjuncts\n"
            "  resource limit at tau {1}: elimination exceeds 1 conjuncts\n"
            "  resource limit at tau {2}: elimination exceeds 1 conjuncts\n"
            "  resource limit at tau {}: elimination exceeds 1 conjuncts\n"
            "1 clause: 0 looping, 1 none found\n")
        assert captured.err == ""

    def test_propagation_resource_limit(self, tmp_path, capsys):
        # clause 3's body denotation takes an elimination step of 6
        # conjuncts; the subset scan of clause 1 and clause 2's take at most 3
        path = rule_file(tmp_path, (
            "s(A) <- A = B <> s(B).\n"
            "c(X) <- X >= Y, X >= 2*Y, X <= 5 <> s(Y).\n"
            "d(X) <- X >= Y, X >= 2*Y, X >= 3*Y, X <= 5, X <= 6 + Y <> s(Y).\n"))
        assert main(["analyze", path]) == 0
        full = capsys.readouterr().out
        assert main(["analyze", path, "--max-dnf", "3"]) == 3
        out = capsys.readouterr().out
        assert out.endswith(
            "propagated:\n"
            "  clause 2: <c(X) | X - Y >= 0, X - 2*Y >= 0, X <= 5>  via <s(0) | true>\n"
            "resource limit in propagation: elimination exceeds 3 conjuncts\n"
            "3 clauses: 1 looping, 2 none found\n")
        assert out.split("propagated:")[0] == full.split("propagated:")[0]
        assert "  clause 3: <d(X)" in full
        assert main(["analyze", path, "--max-dnf", "3", "--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        assert [p["clause"] for p in data["propagated"]] == [2]
        assert data["propagation_error"] == "elimination exceeds 3 conjuncts"
        assert main(["analyze", path, "--json"]) == 0
        assert "propagation_error" not in json.loads(capsys.readouterr().out)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"clploop {__version__}"

    def test_module_entry_point(self):
        src = str(Path(clploop.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "clploop", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"clploop {__version__}"

    def test_an_invalid_byte_on_the_command_line_is_a_parse_error(self, corpus_path):
        # the interpreter decodes argv with surrogateescape under a UTF-8 locale
        src = str(Path(clploop.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "clploop", "check", str(corpus_path), "--query",
             b"p1(\xff)"],
            capture_output=True, env=dict(os.environ, PYTHONPATH=src, LC_ALL="C.UTF-8"),
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: 1:4: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_closed_stdout_exits_1_without_traceback(self, tmp_path, flags):
        # 3000 unscanned clauses make a report (170 KB as text, 460 KB as
        # JSON) larger than a pipe's buffer, so its writing outlasts the reader
        text = "".join(f"q{i}(A) <- A >= {i} <> r(A).\n" for i in range(3000))
        path = rule_file(tmp_path, text)
        src = str(Path(clploop.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "clploop", "analyze", path, *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b"", err.decode()


class TestColdStart:
    def test_cli_import_loads_no_dataclasses(self):
        # importing dataclasses, and the inspect it pulls in, cost about a
        # third of a cold process's import of the command line
        src = str(Path(clploop.__file__).resolve().parent.parent)
        code = ("import sys; before = set(sys.modules); import clploop.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "clploop.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


class TestCollectorPause:
    """``main`` pauses the cyclic garbage collector for the whole command,
    since the analysis builds no reference cycles, and leaves it as found."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        yield
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("args, code", [
        (["analyze", "CORPUS", "--json"], 0),
        # resource-limit errors recorded in the report
        (["analyze", "CORPUS", "--json", "--max-dnf", "1"], 3),
        (["analyze", "CHAIN"], 0),
        (["check", "CORPUS", "--query", "p16(0, 0)", "--run", "50", "--trace"], 0),
    ], ids=["corpus", "corpus-max-dnf-1", "chain", "check-run-trace"])
    def test_a_command_leaves_no_cyclic_garbage_of_the_package(
            self, args, code, collector, corpus_path, tmp_path, capsys):
        chain = rule_file(tmp_path, benchmark_text("chain"))
        args = [{"CORPUS": str(corpus_path), "CHAIN": chain}.get(a, a) for a in args]
        assert main(args) == code
        assert capsys.readouterr().out
        # what a collection would free, kept in gc.garbage instead
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        kinds = {type(obj) for obj in gc.garbage}
        ours = {k for k in kinds if k.__module__.startswith("clploop")}
        frames = {k for k in kinds
                  if issubclass(k, (types.FrameType, types.TracebackType, BaseException))}
        assert not ours and not frames, (ours, frames)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, enabled, collector,
                                                      corpus_path, monkeypatch, capsys):
        seen = []
        analyze = cli.analyze_program
        monkeypatch.setattr(cli, "analyze_program",
                            lambda *a, **kw: seen.append(gc.isenabled()) or analyze(*a, **kw))
        if enabled:
            gc.enable()
        for args, code in ((["analyze", str(corpus_path)], 0),
                           (["analyze", "no/such/file.clp"], 2)):
            assert main(args) == code
            assert gc.isenabled() is enabled, args
        # argparse exits: a usage error and --help
        for args, code in ((["analyze"], 2), (["--help"], 0), (["analyze", "--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == code
            assert gc.isenabled() is enabled, args
        # paused while the command ran
        assert seen == [False]


class TestCheck:
    def test_ground_query_loops(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_GE)
        code = main(["check", path, "--query", "p(0, 0) : true", "--run", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LOOPS (proved)" in out
        assert "more general than" in out
        assert "empirical: 10 steps (limit reached)" in out

    def test_open_query_loops(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_GE)
        assert main(["check", path, "--query", "p(X, Y) : true"]) == 0
        out = capsys.readouterr().out
        assert "LOOPS (proved)" in out

    def test_unknown_query(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_LE)
        assert main(["check", path, "--query", "p(1, X) : true"]) == 0
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "LOOPS" not in out

    def test_finite_run_reported(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A) <- A = 0, B = 1 <> p(B).\n")
        assert main(["check", path, "--query", "p(A) : A = 0", "--run", "10"]) == 0
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "empirical: 1 steps (derivation ended)" in out

    def test_repeating_run_reaches_a_large_limit(self, tmp_path, capsys):
        # the run repeats a variant query after one step, so the remaining
        # steps are inferred rather than executed
        path = rule_file(tmp_path, "p(A) <- A = B <> p(B).\n")
        assert main(["check", path, "--query", "p(0)", "--run", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "empirical: 1000000 steps (limit reached)" in out

    def test_drifting_run_reaches_a_large_limit(self, tmp_path, capsys, monkeypatch):
        # the store drifts by one each step, so no query repeats; the run
        # stops executing once a step contains the previous one moved by
        # W1 := W1 + 1.  With --verify-steps 0 the analysis runs no witness,
        # so every derivation step counted is the --run's
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return derivation_step(*args, **kwargs)

        monkeypatch.setattr(engine, "derivation_step", counted)
        path = rule_file(tmp_path, "p(A) <- A = B - 1 <> p(B).\n")
        assert main(["check", path, "--query", "p(0)", "--run", "1000000",
                     "--verify-steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "  empirical: 1000000 steps (limit reached)\n" in out
        assert len(calls) <= 4

    def test_trace_of_a_repeating_run_reaching_a_large_limit(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A) <- A = B <> p(B).\n")
        assert main(["check", path, "--query", "p(0)", "--run", "1000000",
                     "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  empirical: 1000000 steps (limit reached)" in lines
        assert sum(line.startswith("  step ") for line in lines) <= 3
        assert lines[-1] == ("  steps 3..1000000 not executed: "
                             "step 2 is a variant of step 1 (period 1)")

    def test_trace(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A) <- A = B + 1, B >= 0 <> p(B).\n")
        assert main(["check", path, "--query", "p(3)", "--run", "3", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "step 1: clause 1 |- <p(B#1) | B#1 = 2>" in out
        assert "step 3: clause 1 |- <p(B#3) | B#3 = 0>" in out

    def test_json_payload(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_GE)
        assert main(["check", path, "--query", "p(0, 0)", "--run", "5",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["query"] == "<p(0, 0) | true>"
        assert data["verdict"] == "LOOPS (proved)"
        assert data["via"].startswith("more general than")
        assert data["empirical_steps"] == 5

    def test_json_unknown(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_LE)
        assert main(["check", path, "--query", "p(1, X)", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "UNKNOWN"
        assert data["via"] is None
        assert data["empirical_steps"] is None

    def test_run_obeys_max_dnf(self, tmp_path, capsys):
        # the analysis and the proof fit in 5 conjuncts, the run's second
        # step does not; the verdict is printed before the run starts
        path = rule_file(
            tmp_path, "p(A, B) <- D <= C, E <= C, C <= A, C <= B + D <> p(D, E).\n")
        args = ["check", path, "--query", "p(0, 1)", "--max-dnf", "5"]
        assert main(args) == 0
        verdict = capsys.readouterr().out
        assert verdict == "<p(0, 1) | true>: UNKNOWN\n"
        assert main(args + ["--run", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == verdict
        assert captured.err.splitlines() == ["error: elimination exceeds 5 conjuncts"]

    def test_a_run_stopped_by_the_ceiling_keeps_the_proved_verdict(self, tmp_path,
                                                                   capsys):
        # the run's first step exceeds one conjunct; the proof does not.  The
        # JSON document holds the run's steps, so it is printed whole or not
        # at all
        path = rule_file(tmp_path, "p(A, B) <- C = A + B, D = B + 1 <> p(C, D).\n")
        args = ["check", path, "--query", "p(X, Y) : X >= 0, Y >= X, X + Y <= 4",
                "--run", "20", "--max-dnf", "1"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == (
            "<p(X, Y) | X >= 0, X - Y <= 0, X + Y <= 4>: LOOPS (proved)\n"
            "  more general than <p(0, 0) | true>\n")
        assert captured.err == "error: elimination exceeds 1 conjuncts\n"
        assert main(args + ["--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: elimination exceeds 1 conjuncts\n"

    def test_proof_obeys_max_dnf(self, tmp_path, capsys):
        path = rule_file(tmp_path, "p(A) <- A = B - 1 <> p(B).\n")
        query = "p(X) : X <= Y, X <= 2*Z, W <= X, V <= X"
        assert main(["check", path, "--query", query, "--max-dnf", "3"]) == 0
        assert "LOOPS (proved)" in capsys.readouterr().out
        assert main(["check", path, "--query", query, "--max-dnf", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: elimination exceeds 2 conjuncts"]

    def test_filter_more_general_proof(self, tmp_path, capsys, monkeypatch):
        text = "p(A, B) <- A >= 1, A = C + 1, B = D <> p(C, D).\n"
        path = rule_file(tmp_path, text)
        assert main(["check", path, "--query", "p(X, 3) : X >= 1"]) == 0
        assert capsys.readouterr().out == (
            "<p(X, 3) | X >= 1>: LOOPS (proved)\n"
            "  filter-more-general than <p(A, B) | A >= 1, A - C = 1, B - D = 0> "
            "under tau {2}\n")
        # a query that no fact proves tries both passing filters ({2} and
        # {}) on the head query the clause built for its scan
        report = analyzer.analyze_program(parse_program(text))
        rule = report.reports[0].clause
        built = []
        init = Query.__init__

        def counted(q, atom, constraint):
            built.append((atom, constraint))
            init(q, atom, constraint)

        monkeypatch.setattr(Query, "__init__", counted)
        assert analyzer.proof_for(parse_query("p(0, 0)"), report) is None
        assert built and not {(rule.head_atom, rule.constraint),
                              (rule.body_atom, rule.constraint)} & set(built)

    def test_filter_proof_skips_a_looping_rule_of_another_predicate(self, tmp_path,
                                                                    capsys):
        # q's looping rule comes first; only p's head query can prove p(3)
        path = rule_file(tmp_path, "q(A) <- A = B <> q(B).\n"
                                   "p(A) <- A >= 0, B = A + 1 <> p(B).\n")
        assert main(["check", path, "--query", "p(3)"]) == 0
        assert capsys.readouterr().out == (
            "<p(3) | true>: LOOPS (proved)\n"
            "  filter-more-general than <p(A) | A >= 0, A - B = -1> under tau {1}\n")

    def test_unknown_predicate(self, tmp_path, capsys):
        path = rule_file(tmp_path, SHIFT_GE)
        assert main(["check", path, "--query", "r(0)"]) == 2
        assert capsys.readouterr().err == "error: 1:1: unknown predicate r/1\n"

    def test_analysis_resource_limit_is_named(self, corpus_path, capsys):
        # the verdict and the payload are those of a run without the line
        args = ["check", str(corpus_path), "--query", "p1(0)", "--max-dnf", "2"]
        line = ("error: clause 18: resource limit at tau {1,2,3}: "
                "elimination exceeds 2 conjuncts\n")
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == (
            "<p1(0) | true>: LOOPS (proved)\n  more general than <p1(0) | true>\n")
        assert captured.err == line
        assert main(args + ["--json"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "query": "<p1(0) | true>", "verdict": "LOOPS (proved)",
            "via": "more general than <p1(0) | true>", "empirical_steps": None}
        assert captured.err == line

    def test_propagation_resource_limit_is_named(self, tmp_path, capsys):
        path = rule_file(tmp_path, (
            "s(A) <- A = B <> s(B).\n"
            "c(X) <- X >= Y, X >= 2*Y, X <= 5 <> s(Y).\n"
            "d(X) <- X >= Y, X >= 2*Y, X >= 3*Y, X <= 5, X <= 6 + Y <> s(Y).\n"))
        assert main(["check", path, "--query", "s(0)", "--max-dnf", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("<s(0) | true>: LOOPS (proved)\n")
        assert captured.err == (
            "error: resource limit in propagation: elimination exceeds 3 conjuncts\n")

    def test_propagated_head_counts_as_proof(self, tmp_path, capsys):
        path = rule_file(tmp_path, PAIR)
        assert main(["check", path, "--query", "q(Z)"]) == 0
        out = capsys.readouterr().out
        assert "LOOPS (proved)" in out
        assert "more general than <q(Z) | Z <= 5>" in out
