"""Command-line front end: subcommands, exit codes, golden outputs."""

import io
import pathlib
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from rieszlab import cli, dsl, evaluator
from rieszlab import generators as gen
from rieszlab.mutations import tampered

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.rl"))


def run_cli(*argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_demo_corpus_exists():
    assert len(DEMOS) >= 15


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_golden_outputs(script):
    golden = script.with_suffix(".out")
    code, out = run_cli("run", str(script), "--seed", "0")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_round_trips(script):
    text = script.read_text(encoding="utf-8")
    result = dsl.parse(text)
    assert result.ok, result.diagnostics
    printed = dsl.print_script(result.script)
    again = dsl.parse(printed)
    assert again.ok and again.script == result.script


def test_run_missing_file():
    code, _ = run_cli("run", "no/such/file.rl")
    assert code == cli.EXIT_PARSE


def test_run_a_script_that_is_not_utf8_exits_2(tmp_path, capsys):
    script = tmp_path / "bad.rl"
    script.write_bytes(b"eval \xff;\n")
    assert cli.main(["run", str(script)]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {script} is not UTF-8 text (")


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.rl"
    bad.write_text("let x = coord[1,")
    code, _ = run_cli("run", str(bad))
    assert code == cli.EXIT_PARSE


def test_exit_code_type_error(tmp_path):
    script = tmp_path / "t.rl"
    script.write_text("eval coord[1] + 1;")
    code, _ = run_cli("run", str(script))
    assert code == cli.EXIT_TYPE
    script.write_text("eval coord[1] + coord[1,2];")
    code, _ = run_cli("run", str(script))
    assert code == cli.EXIT_TYPE


def test_exit_code_precondition(tmp_path):
    script = tmp_path / "p.rl"
    script.write_text("eval fragments(ec[|1]);")  # infinite without @level
    code, _ = run_cli("run", str(script))
    assert code == cli.EXIT_PRECONDITION


def test_below_prefix_level_exits_4(tmp_path, capsys):
    # a level below the prefix has no table; it used to print nothing
    # and exit 0 for the operator lattice
    script = tmp_path / "below.rl"
    for line in ("eval (l0 \\/ l1)(ec[1,2,3,4,5|7]) @level 3;",
                 "eval mod(l1)(ec[1,2,3,4,5|7]) @level 3;",
                 "eval fragments(ec[1,2,3,4,5|7]) @level 3;"):
        script.write_text(
            "let l0 = linec{1:1, 2:2; unit -> coord[0]; target coord[1]};\n"
            "let l1 = linec{1:-1, 3:1; unit -> coord[1]; target coord[1]};\n"
            + line + "\n")
        assert cli.main(["run", str(script)]) == cli.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("precondition violated: level 3 is below the "
                            "prefix length 5\n")


@pytest.mark.parametrize("expr, printed", [
    # S = (t, 2t) and T = (-t, 3t) into one atom; at (1, 1) the join
    # takes S on atom 1 and T on atom 2: (S v T) = (1, 3) per atom
    ("(S \\/ T)^+", "coord[4] attained=[(coord[1,1] | coord[0,0])]"),
    ("|S \\/ T|", "coord[4] attained=[(coord[1,1] | coord[0,0])]"),
    ("(S^+)^-", "coord[0] attained=[(coord[0,0] | coord[1,1])]"),
    # atom 1 ties (1 against 1) and goes right; atom 2 takes 3 over 2
    ("(S \\/ T) \\/ S", "coord[4] attained=[(coord[0,1] | coord[1,0])]")],
    ids=["pos-of-join", "mod-of-join", "neg-of-pos", "join-of-join"])
def test_nested_derived_operators_evaluate(tmp_path, capsys, expr, printed):
    # derived operators are operator bodies, so they nest
    script = tmp_path / "nested.rl"
    script.write_text(
        "let S = kernel{1->1: t -> t, 2->1: t -> 2*t};\n"
        "let T = kernel{1->1: t -> -t, 2->1: t -> 3*t};\n"
        f"eval ({expr})(coord[1,1]);\n")
    assert cli.main(["run", str(script)]) == 0
    assert capsys.readouterr() == (printed + "\n", "")


def test_derived_operators_enter_sums_and_meyer(tmp_path, capsys):
    script = tmp_path / "compose.rl"
    script.write_text(
        "let S = kernel{1->1: t -> t, 2->1: t -> 2*t};\n"
        "let T = kernel{1->1: t -> -t, 2->1: t -> 3*t};\n"
        "eval ((S \\/ T) + S)(coord[1,1]);\n"
        "eval meyer(S \\/ T; coord[1,0], coord[0,1]);\n")
    assert cli.main(["run", str(script)]) == 0
    assert capsys.readouterr() == (
        "coord[7]\ncoord[0] (unsafe: lateral bound not checked)\n", "")


@pytest.mark.parametrize("lines, out", [
    # an unguarded meyer inside a larger expression
    (["eval meyer(K; coord[1,0], coord[0,1]) + coord[0,0];"],
     "coord[0,0] (unsafe: lateral bound not checked)\n"),
    # a name bound to one, and a name bound to an expression using it
    (["let m = meyer(K; coord[1,0], coord[0,1]);", "eval m;",
      "let n = m + coord[1,1];", "eval n;"],
     "coord[0,0] (unsafe: lateral bound not checked)\n"
     "coord[1,1] (unsafe: lateral bound not checked)\n"),
    # the guarded form, and a name rebound to a safe value
    (["let m = meyer(K; coord[1,0], coord[0,1]);", "let m = coord[2,2];",
      "eval m;", "eval meyer(K; coord[1,0], coord[0,1]; coord[1,1]);"],
     "coord[2,2]\ncoord[0,0]\n")],
    ids=["in-expression", "bound-name", "guarded-or-rebound"])
def test_unguarded_meyer_is_flagged_wherever_it_is_used(tmp_path, capsys,
                                                        lines, out):
    script = tmp_path / "unsafe.rl"
    script.write_text("let K = kernel{1: t -> t, 2: t -> 2*t};\n"
                      + "\n".join(lines) + "\n")
    assert cli.main(["run", str(script)]) == cli.EXIT_OK
    assert capsys.readouterr() == (out, "")


def _vanishing_on_sampled_scalars(sign) -> str:
    """sign * t * prod(t - s) over the nonzero scalars s the sampler
    draws, as the text of a kernel polynomial: 0 at every sample."""
    magnitude, denominators = gen.random_scalar.__defaults__
    roots = {Fraction(k, d) for k in range(-magnitude, magnitude + 1)
             for d in denominators if k}
    coeffs = [0, sign]  # ascending powers
    for s in roots:
        coeffs = [a - s * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return " + ".join(f"{c}*t^{k}" for k, c in enumerate(coeffs) if c)


def test_meyer_with_a_bound_needs_a_body_reason(tmp_path, capsys):
    # rows 1 -> 1: f and 2 -> 1: -f send the disjoint (5,0) and (0,5)
    # onto one atom, yet every sampled pair maps to 0
    script = tmp_path / "meyer.rl"
    script.write_text(
        f"let T = kernel{{1->1: t -> {_vanishing_on_sampled_scalars(1)}, "
        f"2->1: t -> {_vanishing_on_sampled_scalars(-1)}}};\n"
        "eval T(coord[5,0]);\n"
        "eval meyer(T; coord[5,0], coord[0,5]; coord[5,5]);\n")
    assert cli.main(["run", str(script)]) == cli.EXIT_PRECONDITION
    assert capsys.readouterr() == (
        "coord[8455554412305]\n",
        f"{script}:3:1: precondition violated: the operator does not "
        "preserve disjointness by construction (it has no dp_reason)\n")


@pytest.mark.parametrize("second, code, out, err", [
    # each target atom of K + K is fed from one atom: a dp reason
    ("K", cli.EXIT_OK, "coord[0,0]\n", ""),
    # so it is of (K + K) + K, which nests one sum in another
    ("K + K", cli.EXIT_OK, "coord[0,0]\n", ""),
    # target 1 of K + S is fed from atoms 1 (by K) and 2 (by S): no dp
    # reason
    ("S", cli.EXIT_PRECONDITION, "",
     ":3:1: precondition violated: the operator does not preserve "
     "disjointness by construction (it has no dp_reason)\n"),
], ids=["one-source-per-target", "nested-sum",
         "two-sources-for-a-target"])
def test_meyer_of_a_kernel_sum(second, code, out, err, tmp_path, capsys):
    script = tmp_path / "sum.rl"
    script.write_text(
        "let K = kernel{1: t -> t, 2: t -> 2*t};\n"
        "let S = kernel{1->2: t -> t, 2->1: t -> t};\n"
        f"eval meyer(K + {second}; coord[1,0], coord[0,-1]; coord[1,-1]);\n")
    assert cli.main(["run", str(script)]) == code
    assert capsys.readouterr() == (out, f"{script}{err}" if err else "")


def test_nested_derived_operator_at_an_infinite_point_exits_4(tmp_path,
                                                              capsys):
    # the inner join is applied without a level, so its infinite
    # splitting family has no value to fold
    script = tmp_path / "nested.rl"
    script.write_text("let A = series;\n"
                      "eval ((A \\/ A)^+)(ec[1|1]) @level 3;\n")
    assert cli.main(["run", str(script)]) == cli.EXIT_PRECONDITION
    assert capsys.readouterr() == (
        "", f"{script}:2:1: precondition violated: infinite splitting "
            "family: supply a truncation level\n")


@pytest.mark.parametrize("text, code, printed, message", [
    ("eval coord[1] + coord[1];\n"
     "eval coord[1] + coord[1,2];\n", cli.EXIT_TYPE, "coord[2]\n",
     "2:1: type error: coord(1) vs coord(2)"),
    # a type error names the expression's position alone
    ("eval coord[1];\n"
     "eval coord[1] + 1;\n", cli.EXIT_TYPE, "coord[1]\n",
     "2:15: type error: '+' needs two elements, scalars or operators"),
    ("let A = series;\n"
     "eval (A^+)(ec[1|1]) @level 3;\n"
     "eval ((A \\/ A)^+)(ec[1,1|0]);\n"
     "eval ((A \\/ A)^+)(ec[1|1]) @level 3;\n", cli.EXIT_PRECONDITION,
     "level 0: 0\n"
     "level 1: 1 - ln2\n"
     "level 2: 1/2\n"
     "level 3: 4/3 - ln2\n"
     "1/2 attained=[(ec[0,1|0] | ec[1|0])]\n",
     "4:1: precondition violated: infinite splitting family: supply a "
     "truncation level"),
    # a builtin with no row for its arguments' kinds fails at the call,
    # not in the library
    ("eval coord[1];\n"
     "eval latsup(coord[1,0], coord[0,1], 5);\n", cli.EXIT_TYPE,
     "coord[1]\n", "2:12: type error: latsup takes two elements and an "
     "optional base element"),
    ("eval coord[1];\n"
     "eval latsup(coord[1,0], coord[0,1], coordspace(2));\n", cli.EXIT_TYPE,
     "coord[1]\n", "2:12: type error: latsup takes two elements and an "
     "optional base element"),
    ("eval coord[1];\n"
     "eval one(kernel{1: t -> t});\n", cli.EXIT_TYPE, "coord[1]\n",
     "2:9: type error: one takes an element or a space"),
    # latmeet and coordspace are builtins: a call with operands of the
    # wrong kind fails at its parenthesis, and so does a dimension that
    # the library refuses as not a positive integer
    ("eval coord[1];\n"
     "eval latmeet(1, 2);\n", cli.EXIT_TYPE, "coord[1]\n",
     "2:13: type error: latmeet needs two elements"),
    ("eval coord[1];\n"
     "eval coordspace(1/2);\n", cli.EXIT_TYPE, "coord[1]\n",
     "2:16: type error: coordinate space needs an integer n >= 1"),
    ("eval coord[1];\n"
     "eval coordspace(coord[1]);\n", cli.EXIT_TYPE, "coord[1]\n",
     "2:16: type error: coordspace takes one dimension, a positive integer"),
    # an empty splitting parses, and pliev_grid refuses it
    ("eval coord[1];\n"
     "eval pliev(; coord[1]);\n", cli.EXIT_PRECONDITION, "coord[1]\n",
     "2:1: precondition violated: both splittings must be nonempty"),
    # an empty kernel parses, and is refused as an empty table is
    ("eval coord[1];\n"
     "eval kernel{};\n", cli.EXIT_TYPE, "coord[1]\n",
     "2:1: type error: a kernel needs at least one row")],
    ids=["type-error", "dsl-type-error", "precondition",
         "latsup-scalar-base", "latsup-space-base", "one-of-operator",
         "latmeet-of-scalars", "coordspace-of-a-fraction",
         "coordspace-of-an-element", "pliev-empty-splitting",
         "empty-kernel"])
def test_a_failing_statement_keeps_the_output_before_it(tmp_path, capsys,
                                                       text, code, printed,
                                                       message):
    # statements print as they complete, and the error names the position
    # of the statement that failed, or of its expression that has the
    # wrong type
    script = tmp_path / "partial.rl"
    script.write_text(text)
    assert cli.main(["run", str(script)]) == code
    assert capsys.readouterr() == (printed, f"{script}:{message}\n")


def test_exit_code_check_failure_in_script(tmp_path):
    # a level table that leaves out the image of the rest of the point
    # gives the series a wrong odd-level maximum, a real counterexample
    script = tmp_path / "c.rl"
    script.write_text("check ex-2.2 level=8;")
    with tampered("level-suffix-drops-tail"):
        code, out = run_cli("run", str(script))
    assert code == cli.EXIT_CHECK_FAILED
    assert out.startswith("ex-2.2 fails")
    # unfaulted, a level-8 maximum below the bound refutes nothing
    code, out = run_cli("run", str(script))
    assert code == cli.EXIT_OK
    assert out.startswith("ex-2.2 inconclusive")


def test_long_chains_evaluate_and_deep_nesting_exits_2(tmp_path, capsys):
    # the evaluator walks a left-nested chain in a loop, so a chain of
    # any length evaluates
    chain = tmp_path / "chain.rl"
    chain.write_text("eval " + " + ".join(["coord[1]"] * 3000) + ";")
    assert cli.main(["run", str(chain)]) == cli.EXIT_OK
    assert capsys.readouterr() == ("coord[3000]\n", "")
    parts = tmp_path / "parts.rl"
    parts.write_text("eval coord[1,-2]" + "^+^-" * 1500 + ";")
    assert cli.main(["run", str(parts)]) == cli.EXIT_OK
    assert capsys.readouterr() == ("coord[0,0]\n", "")
    negations = tmp_path / "neg.rl"
    negations.write_text("eval " + "-" * 2000 + "coord[1];")
    assert cli.main(["run", str(negations)]) == cli.EXIT_PARSE
    assert capsys.readouterr() == (
        "", f"{negations}:1:125: error: expression too deeply nested\n")
    # a sum of 3 000 operators is one flat sum of 3 000 parts, so it
    # applies without recursing
    chain = " + ".join(["K"] * 3000)
    sums = tmp_path / "sum.rl"
    sums.write_text(f"let K = kernel{{1: t -> t}};\neval {chain};\n"
                    f"eval ({chain})(coord[1]);")
    assert cli.main(["run", str(sums)]) == cli.EXIT_OK
    assert capsys.readouterr() == ("<operator OpSum>\ncoord[3000]\n", "")


def test_a_value_past_the_digit_limit_prints_in_full(tmp_path, capsys):
    # 99 ** 3000 has 5 987 digits, more than str() converts by default
    script = tmp_path / "big.rl"
    script.write_text("eval " + " * ".join(["99"] * 3000) + ";")
    assert cli.main(["run", str(script)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert (len(out), out[-7:], err) == (
        5988, "%06d\n" % pow(99, 3000, 10 ** 6), "")
    # a 5 000-digit numeral parses, and the limit is restored after
    nines = "9" * 5000
    script.write_text(f"eval coord[1];\neval {nines} * coord[1];\n")
    limit = sys.get_int_max_str_digits()
    assert cli.main(["run", str(script)]) == cli.EXIT_OK
    assert capsys.readouterr() == (f"coord[1]\ncoord[{nines}]\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_check_subcommand_exit_codes():
    code, out = run_cli("check", "ex-4.3-pl")
    assert code == 0 and out.startswith("ex-4.3-pl holds")
    code, _ = run_cli("check", "nosuch")
    assert code == cli.EXIT_TYPE
    code, _ = run_cli("check", "ex-2.2", "--config", "level=8")
    assert code == cli.EXIT_OK
    with tampered("level-suffix-drops-tail"):
        code, _ = run_cli("check", "ex-2.2", "--config", "level=8")
    assert code == cli.EXIT_CHECK_FAILED


def test_check_config_flags_accumulate(tmp_path):
    # each --config flag adds its entries; a later one keeps the earlier
    report = tmp_path / "report.txt"
    code, out = run_cli("check", "ex-2.2", "--config", "level=10",
                        "--config", "bound=3", "--report", str(report))
    assert code == cli.EXIT_OK
    assert out.startswith("ex-2.2 inconclusive") and "level 12:" not in out
    lines = report.read_text(encoding="utf-8").splitlines()
    assert "config.level=10" in lines and "config.bound=3" in lines


def test_check_config_errors_are_preconditions():
    # beyond the enumeration cap: exit 4, not a check failure (exit 5)
    code, out = run_cli("check", "frag-boolean", "--config", "n=19")
    assert code == cli.EXIT_PRECONDITION and out == ""
    code, out = run_cli("check", "lem-3.1", "--config", "instancez=3")
    assert code == cli.EXIT_PRECONDITION and out == ""
    # a seed in the config is an integer, as --seed and RIESZLAB_SEED are
    code, out = run_cli("check", "lem-3.1", "--config", "seed=abc")
    assert code == cli.EXIT_PRECONDITION and out == ""


@pytest.mark.parametrize("statement, err", [
    ("search max_level=abc;", "search: config max_level='abc' out of the "
     "supported range (integer in 1..1000000)"),
    ("search bogus=1 instances=1;", "search: unknown config key(s) bogus; "
     "known keys: bound, instances, max_level, seed"),
    ("search bound=1/2;", "search: config bound='1/2' is not an integer"),
    ("check lem-3.1 seed=abc;", "lem-3.1: config seed='abc' is not an "
     "integer")], ids=["level-not-int", "unknown-key", "bound", "check-seed"])
def test_script_config_errors_are_preconditions(tmp_path, capsys, statement,
                                                err):
    script = tmp_path / "config.rl"
    script.write_text(statement + "\n")
    assert cli.main(["run", str(script)]) == cli.EXIT_PRECONDITION
    assert capsys.readouterr() == (
        "", f"{script}:1:1: precondition violated: {err}\n")


def test_suite_subset_and_report(tmp_path):
    report = tmp_path / "report.txt"
    code, out = run_cli("suite", "--ids", "frag-boolean,lem-3.1",
                        "--report", str(report))
    assert code == 0
    assert out.splitlines()[-1].startswith("total=2 holds=2")
    text = report.read_text(encoding="utf-8")
    records = [r for r in text.split("\n\n") if r.strip()]
    assert len(records) == 2
    assert records[0].splitlines()[0] == "id=frag-boolean"
    assert any(line.startswith("verdict=") for line in records[0].splitlines())


def test_suite_empty_ids():
    code, _ = run_cli("suite", "--ids", "")
    assert code == cli.EXIT_PRECONDITION


def test_search_subcommand():
    code, out = run_cli("search", "--max-level", "12", "--instances", "2",
                        "--seed", "5")
    assert code == 0
    assert out.startswith("search instances=2")
    assert "no claim" in out


def test_env_var_seed(tmp_path, monkeypatch):
    script = tmp_path / "s.rl"
    script.write_text("search instances=2 max_level=8;")
    monkeypatch.setenv("RIESZLAB_SEED", "11")
    code, with_env = run_cli("run", str(script))
    assert code == 0
    code, explicit = run_cli("run", str(script), "--seed", "11")
    assert with_env == explicit


@pytest.mark.parametrize("argv", [
    ["suite", "--ids", "frag-boolean"], ["check", "frag-boolean"],
    ["search", "--instances", "1", "--max-level", "4"], ["run", "s.rl"]])
def test_a_malformed_seed_variable_exits_4(argv, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.rl").write_text("eval coord[1];")
    monkeypatch.setenv("RIESZLAB_SEED", "abc")
    assert cli.main(argv) == cli.EXIT_PRECONDITION
    assert capsys.readouterr() == (
        "", "error: RIESZLAB_SEED must be an integer, got 'abc'\n")
    # an explicit --seed does not read the variable
    assert cli.main([*argv, "--seed", "0"]) == cli.EXIT_OK


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rieszlab", "check", "ex-4.3-latmeet"],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ex-4.3-latmeet holds")


def test_help_documents_grammar_and_ids():
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    parser = cli._build_parser()
    text = parser.format_help()
    assert "kernel{" in text and "thm-2.3-forward" in text
    assert "meyer(T; x, y[; e])" in text


def test_grammar_help_names_every_builtin_and_predefined_name():
    missing = [name for name in sorted(evaluator._BUILTINS)
               if not re.search(rf"\b{name}\(", cli._GRAMMAR_HELP)]
    missing += [name for name in sorted(evaluator._PREDEFINED)
                if not re.search(rf"\b{name}\b", cli._GRAMMAR_HELP)]
    assert not missing
