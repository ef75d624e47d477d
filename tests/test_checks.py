"""The named check suite: registry coverage, determinism, mutations."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from rieszlab.checks import (
    CLAIM_INDEX, REGISTRY, run_all, run_check,
    search_truncated_joins, summary_text,
)
from rieszlab.errors import (
    EnumerationCapExceeded, PreconditionError, UnknownCheck,
)
from rieszlab.mutations import MUTATIONS, tampered
from rieszlab.reports import FAILS, HOLDS

from conftest import is_canonical


REQUIRED_CLAIMS = (
    "theorem 1.1", "theorem 2.3", "theorem 3.2", "theorem 4.2",
    "corollary 3.3", "corollary 3.4", "corollary 3.5", "corollary 3.6",
    "lemma 3.1", "lemma 4.4", "lemma 4.5",
    "example 2.2", "example 4.3 (continuous)", "example 4.3 (lateral meet)",
    "remark c00", "remark positive-linear-is-zero",
)


def test_registry_covers_every_claim():
    for claim in REQUIRED_CLAIMS:
        ids = CLAIM_INDEX[claim]
        assert ids, f"claim {claim} has no checks"
        for cid in ids:
            assert cid in REGISTRY, f"{claim} points at unknown id {cid}"


def test_registry_entries_have_titles_and_profiles():
    for cid, d in REGISTRY.items():
        assert d.title
        assert isinstance(d.quick, dict) and isinstance(d.full, dict)


def test_unknown_id():
    with pytest.raises(UnknownCheck):
        run_check("nosuch")


def test_determinism_identical_records():
    a = run_check("lem-3.1", {"instances": 40}, seed=7)
    b = run_check("lem-3.1", {"instances": 40}, seed=7)
    assert a.record() == b.record()
    c = run_check("ex-2.2", seed=3)
    d = run_check("ex-2.2", seed=3)
    assert c.record() == d.record()


def test_run_all_subset_and_empty_filter():
    results, summary = run_all(ids=["frag-boolean", "ex-4.3-pl"], seed=0)
    assert summary["total"] == 2 and summary[FAILS] == 0
    assert "total=2" in summary_text(summary)
    with pytest.raises(PreconditionError):
        run_all(ids=[])


def test_selected_checks_hold():
    for cid in ("lem-3.1", "thm-1.1-e", "thm-2.3-forward", "ex-2.2",
                "ex-4.3-pl", "ex-4.3-latmeet", "rem-linear-positive"):
        result = run_check(cid)
        assert result.result.verdict == HOLDS, (cid, result.summary_line())


def test_config_out_of_range_is_rejected():
    with pytest.raises(PreconditionError):
        run_check("frag-boolean", {"n": 0})
    with pytest.raises(PreconditionError):
        run_check("lem-3.1", {"instances": "many"})
    # a bool is an int to isinstance, but no count
    for flag in (True, False):
        with pytest.raises(PreconditionError, match=f"n={flag}"):
            run_check("frag-boolean", {"n": flag})
    # the seed seeds the rng, so it is an integer as --seed is
    with pytest.raises(PreconditionError, match="seed='abc' is not an int"):
        run_check("lem-3.1", {"seed": "abc"})
    # the search config follows the same rules
    for config, match in (({"max_level": "abc"}, "max_level='abc'"),
                          ({"instances": 0}, "instances=0"),
                          ({"max_level": 10 ** 6 + 1}, "max_level=1000001"),
                          ({"bound": "x"}, "bound='x' is not an integer"),
                          ({"seed": True}, "seed=True is not an integer"),
                          ({"bogus": 1, "instances": 1}, "unknown config "
                           "key.s. bogus; known keys: bound, instances, "
                           "max_level, seed")):
        with pytest.raises(PreconditionError, match=match):
            search_truncated_joins(config)


def test_a_bound_is_a_rational_number(capsys):
    from rieszlab import cli
    for cid in ("ex-2.2", "thm-2.3-forward"):
        for bad in ("abc", "1/0", "nan", True, 1.5):
            with pytest.raises(PreconditionError,
                               match=f"bound={bad!r} is not a rational"):
                run_check(cid, {"bound": bad})
        assert cli.main(["check", cid, "--config", "bound=abc"]) == \
            cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            f"error: {cid}: config bound='abc' is not a "
            "rational number\n")
        # a rational bound runs
        assert cli.main(["check", cid, "--config", "bound=3/2"]) == \
            cli.EXIT_OK
        assert capsys.readouterr().out.startswith(f"{cid} holds ")
    assert run_check("ex-2.2", {"bound": Fraction(3, 2)}).result.verdict \
        == HOLDS
    # the series' level-62 maximum H_31 / 2 lies just above 2
    assert run_check("ex-2.2", {"bound": "5/2"}).result.witness == \
        "maximum never exceeded 5/2"


def test_unknown_config_key_is_rejected():
    with pytest.raises(PreconditionError, match="instancez"):
        run_check("lem-3.1", {"instancez": 3})
    with pytest.raises(PreconditionError):
        run_check("lat-partial-order", {"samples": 3})
    # seed is accepted by every check
    assert run_check("lem-3.1", {"instances": 2, "seed": 5}).config == \
        {"instances": 2, "seed": 5}


def test_runner_precondition_is_not_a_failure():
    # beyond the enumeration cap: a precondition outcome, not a counterexample
    with pytest.raises(EnumerationCapExceeded, match="enumeration cap"):
        run_check("frag-boolean", {"n": 19})


def test_runner_broken_precondition_is_a_failure(monkeypatch):
    # a precondition the runner's own arguments should meet is a fault
    # of the calculus, not of the configuration
    from rieszlab import checks as checks_mod
    broken = REGISTRY["lem-3.1"]

    def runner(rng, cfg):
        raise PreconditionError("splittings sum to different elements")

    monkeypatch.setitem(checks_mod.REGISTRY, "lem-3.1",
                        type(broken)(broken.id, broken.title, runner,
                                     broken.quick, broken.full))
    result = run_check("lem-3.1").result
    assert result.verdict == FAILS
    assert result.witness == ("exception: PreconditionError('splittings sum "
                              "to different elements')")
    assert result.notes == ("runner raised instead of reporting, at "
                            "test_checks.py:test_runner_broken_precondition_"
                            "is_a_failure.<locals>.runner+1")


def test_runner_exception_becomes_failure(monkeypatch):
    from rieszlab import checks as checks_mod
    broken = REGISTRY["lem-3.1"]

    def boom(rng, cfg):
        raise RuntimeError("wired to explode")

    # CheckDef is frozen; swap the whole registry entry
    monkeypatch.setitem(checks_mod.REGISTRY, "lem-3.1",
                        type(broken)(broken.id, broken.title, boom,
                                     broken.quick, broken.full))
    result = run_check("lem-3.1")
    assert result.result.verdict == FAILS
    assert "exception" in (result.result.witness or "")


def test_runner_crash_names_its_innermost_frame(monkeypatch):
    from rieszlab import checks as checks_mod
    broken = REGISTRY["lem-3.1"]

    def crash_inside(cfg):
        return cfg["no such key"]

    def runner(rng, cfg):
        return crash_inside(cfg)

    monkeypatch.setitem(checks_mod.REGISTRY, "lem-3.1",
                        type(broken)(broken.id, broken.title, runner,
                                     broken.quick, broken.full))
    result = run_check("lem-3.1").result
    assert result.verdict == FAILS
    assert result.witness == "exception: KeyError('no such key')"
    assert result.notes == ("runner raised instead of reporting, at "
                            "test_checks.py:test_runner_crash_names_its_"
                            "innermost_frame.<locals>.crash_inside+1")


def test_mutation_meet_formula_breaks_lateral_meet_example():
    with tampered("latinf-collinear-meet-formula"):
        assert run_check("ex-4.3-latmeet").result.verdict == FAILS
    assert run_check("ex-4.3-latmeet").result.verdict == HOLDS


def test_mutation_sup_sign_flip_breaks_boolean_algebra():
    with tampered("latsup-sign-flip"):
        assert run_check("frag-boolean").result.verdict == FAILS
    assert run_check("frag-boolean").result.verdict == HOLDS


def test_mutation_zero_meet_breaks_grid_reconstruction():
    with tampered("latinf-zero"):
        report = run_check("lem-3.1").result
        assert report.verdict == FAILS
        assert report.witness


def test_mutation_ties_left_breaks_join_attaining_set():
    with tampered("join-ties-left"):
        report = run_check("thm-3.2-join").result
        assert report.verdict == FAILS
        assert "differ from enumeration" in report.witness
    assert run_check("thm-3.2-join", {"samples": 1}).result.verdict == HOLDS


def test_mutation_pl_disjoint_one_end_breaks_lateral_antisymmetry():
    with tampered("pl-disjoint-one-end"):
        report = run_check("lat-partial-order").result
        assert report.verdict == FAILS
        assert report.witness == "antisymmetry"
    assert run_check("lat-partial-order").result.verdict == HOLDS


def test_mutation_pl_lattice_drops_crossing_breaks_lateral_monotonicity():
    # the parts walk their operand apart from the lattice, so lem-4.5
    # compares them with the lattice formulas on the x it draws: sup(x, 0)
    # then cuts the corner where x crosses zero
    with tampered("pl-lattice-drops-crossing"):
        report = run_check("lem-4.5").result
        assert report.verdict == FAILS
        assert report.witness == "pos part differs from its lattice formula"
    assert run_check("lem-4.5").result.verdict == HOLDS


def test_mutation_pl_parts_drop_crossing_breaks_lateral_monotonicity():
    # a positive part then cuts the corner where its argument crosses zero
    with tampered("pl-parts-drop-crossing"):
        report = run_check("lem-4.5").result
        assert report.verdict == FAILS
        assert report.witness == "pos part not laterally monotone"
    assert run_check("lem-4.5").result.verdict == HOLDS


def test_mutation_pl_restrict_dropping_a_breakpoint_breaks_grids():
    with tampered("pl-restrict-drops-breakpoint"):
        report = run_check("lem-3.1").result
        assert report.verdict == FAILS
        assert "does not reconstruct (base pl{" in report.witness
    assert run_check("lem-3.1").result.verdict == HOLDS


def test_mutation_pl_restrict_breaks_oao_and_wedge_as_failures():
    # the point x + y itself is never sliced, so its first splitting,
    # (x + y, 0), meets pliev_grid's preconditions; the grid's lateral
    # infima are slices, and the identities it refines break.  The
    # library's own precondition errors inside a runner are
    # counterexamples, reported with the frame that raised them
    with tampered("pl-restrict-drops-breakpoint"):
        oao = run_check("thm-3.2-oao").result
        wedge = run_check("thm-4.2-4").result
    assert oao.verdict == FAILS and wedge.verdict == FAILS
    assert oao.witness == "grid refinement identity failed"
    assert "is not a fragment of" in wedge.witness
    assert re.search(r"at oplattice\.py:meyer_pair\+\d+$", wedge.notes)


def test_mutation_scalar_truncates_breaks_the_series_enclosure():
    # the width 2^-16 of the first enclosure of ln 2 that the sign test
    # of the series' range asks for is read as a scalar, which the
    # truncating scalar turns into 0
    with tampered("scalar-truncates"):
        report = run_check("ex-2.2").result
        assert report.verdict == FAILS
        assert "enclosure width must be positive" in report.witness
        assert re.search(r"at spaces\.py:ln2_enclosure\+\d+$",
                         report.notes)
    assert run_check("ex-2.2").result.verdict == HOLDS



def test_mutation_ec_prefix_unminimised_breaks_the_wedge():
    # ec[0,0|0] is zero, but not syntactically ec[|0]
    with tampered("ec-prefix-unminimised"):
        report = run_check("thm-4.2-4").result
        assert report.verdict == FAILS
        assert report.witness.startswith("nonzero wedge ec[0,0|0] ")
    assert run_check("thm-4.2-4").result.verdict == HOLDS


def test_mutation_horner_late_power_breaks_the_join_and_meet_oracles():
    # closed form and enumeration both apply the mutant; the oracles
    # evaluate by eval_by_fractions
    with tampered("poly-horner-late-power"):
        join = run_check("thm-3.2-join").result
        meet = run_check("cor-3.3-meet").result
    assert join.verdict == FAILS and meet.verdict == FAILS
    assert join.witness.startswith("join oracle mismatch at coord[")
    assert meet.witness == "meet oracle mismatch"
    assert run_check("cor-3.3-meet").result.verdict == HOLDS


def test_mutation_scalar_truncates_reaches_the_operator_scalars():
    # operators.py reads spaces.q at each call, so the swap reaches its
    # polynomial coefficients, series values and scaling factors
    from rieszlab.operators import (
        AlternatingSeries, OpScaled, ZeroOp, apply, poly,
    )
    from rieszlab.spaces import Coordinate, ec
    half = Fraction(1, 2)
    with tampered("scalar-truncates"):
        assert poly(0, half, 3).coeffs == ((0, 0, 3),)
        assert apply(AlternatingSeries(), ec([0, 1], 0)).payload == (0, 0)
        assert OpScaled(half, ZeroOp(Coordinate(1), Coordinate(1))).factor == 0
    assert poly(0, half).coeffs == ((0, half),)


def test_mutation_kernel_window_short_breaks_the_window_check():
    # the walks stop one level early and miss the last row's atom
    with tampered("kernel-window-short"):
        report = run_check("op-level-window").result
    assert report.verdict == FAILS
    assert "differs from the full walk" in report.witness
    assert run_check("op-level-window").result.verdict == HOLDS


def test_mutation_pl_common_skips_end_values_breaks_the_common_fragment():
    # two ramps that differ only at t=0 or t=1 share no component there
    with tampered("pl-common-skips-end-values"):
        report = run_check("lat-common-fragment").result
    assert report.verdict == FAILS
    assert report.witness.startswith("lateral infimum of pl{")
    assert run_check("lat-common-fragment").result.verdict == HOLDS


# the checks whose runners keep their own bodies rather than a draw and a
# claim; in frag-boolean and lat-partial-order some laws are checked but
# not counted as samples, and the other four draw nothing
OWN_BODIES = ("frag-boolean", "lat-partial-order", "thm-2.3-forward",
              "ex-2.2", "ex-4.3-pl", "ex-4.3-latmeet")

# the checks that fail under each mutant at quick profile, seed 0; no
# named check parses scripts, so tests/test_dsl.py guards the lexer mutants
CATCHERS = {
    "latinf-collinear-meet-formula": ("lat-common-fragment", "thm-1.1-c",
                                      "thm-1.1-e", "thm-2.3-converse",
                                      "thm-4.2-2", "thm-4.2-3",
                                      "ex-4.3-latmeet"),
    "latsup-sign-flip": ("frag-boolean", "lat-partial-order"),
    "latinf-zero": ("frag-boolean", "lat-common-fragment", "lem-3.1",
                    "thm-3.2-oao", "ex-4.3-latmeet"),
    "join-ties-left": ("thm-3.2-join",),
    "pl-disjoint-one-end": ("lat-partial-order",),
    "pl-restrict-drops-breakpoint": ("lat-common-fragment", "lem-3.1",
                                     "lem-4.4", "lem-4.5", "thm-3.2-oao",
                                     "thm-4.2-4"),
    "pl-lattice-drops-crossing": ("lem-4.5",),
    "scalar-truncates": (
        "lat-partial-order", "lat-common-fragment", "lem-3.1", "lem-4.4",
        "lem-4.5", "thm-1.1-b", "thm-1.1-c", "thm-1.1-d", "thm-1.1-e",
        "thm-2.3-converse", "rem-linear-positive", "thm-3.2-oao",
        "thm-3.2-pres-p", "cor-3.6-pres-P", "thm-4.2-1", "thm-4.2-2",
        "thm-4.2-3", "thm-4.2-4", "ex-2.2", "ex-4.3-latmeet"),
    "atomic-pick-drops-denominator": ("thm-1.1-a", "thm-1.1-b",
                                      "thm-2.3-converse", "rem-c00",
                                      "thm-3.2-join", "cor-3.3-meet"),
    "pl-parts-drop-crossing": ("lem-4.5",),
    "ec-prefix-unminimised": ("thm-4.2-2", "thm-4.2-3", "thm-4.2-4"),
    "ec-parts-keep-tail": ("lem-4.5",),
    "poly-horner-late-power": ("thm-3.2-join", "cor-3.3-meet", "cor-3.4-pos",
                               "cor-3.5-neg", "cor-3.6-mod"),
    "kernel-window-short": ("op-level-window",),
    "kernel-table-drops-top-piece": ("thm-3.2-join", "cor-3.3-meet",
                                     "cor-3.4-pos", "cor-3.5-neg",
                                     "cor-3.6-mod", "thm-4.2-2", "thm-4.2-3"),
    "column-fold-first-cell": ("thm-3.2-join", "cor-3.3-meet", "cor-3.4-pos",
                               "cor-3.5-neg", "cor-3.6-mod", "thm-4.2-2",
                               "thm-4.2-3"),
    "pl-common-skips-end-values": ("lat-common-fragment",),
    "pl-strip-spares-a-collinear-point": ("lat-partial-order", "lem-4.4",
                                          "thm-3.2-oao"),
    "pl-slice-keeps-crossing": ("lat-partial-order", "lem-4.4"),
    "additive-table-drops-last-piece": ("thm-3.2-join", "cor-3.3-meet",
                                        "cor-3.4-pos", "cor-3.5-neg",
                                        "cor-3.6-mod", "thm-4.2-2",
                                        "thm-4.2-3"),
    "kernel-pieces-read-next-atom": (
        "thm-1.1-a", "thm-1.1-c", "thm-1.1-e", "thm-2.3-converse", "rem-c00",
        "thm-3.2-join", "thm-3.2-oao", "thm-3.2-pres-p", "cor-3.3-meet",
        "cor-3.4-pos", "cor-3.5-neg", "cor-3.6-mod", "cor-3.6-pres-P",
        "thm-4.2-2", "thm-4.2-3"),
    "latmeet-pieces-drop-b": ("thm-1.1-c", "thm-1.1-e", "thm-4.2-2",
                              "thm-4.2-3"),
    "zero-pieces-one-short": ("thm-1.1-c", "thm-2.3-converse", "rem-c00",
                              "thm-3.2-pres-p", "cor-3.4-pos", "cor-3.5-neg",
                              "cor-3.6-pres-P", "thm-4.2-3"),
    "mod-pieces-skip-negation": ("cor-3.6-pres-P",),
    "lex-comment-swallows-newline": (),
    "lex-col-after-newline-off-by-one": (),
    "ln2-sign-first-enclosure": ("ex-2.2",),
}


def test_kill_matrix_names_every_mutant():
    assert set(CATCHERS) == set(MUTATIONS)


def _mutant_records():
    """(mutant, check id) -> the catcher's record under that mutant at
    quick profile, seed 0, from the committed golden."""
    golden = Path(__file__).parent / "goldens" / "mutant_catchers_seed0.rep"
    records = {}
    for block in golden.read_text(encoding="utf-8").split("\n\n"):
        if block:
            mutant, *record = block.split("\n")
            records[mutant.removeprefix("mutant="), record[0][3:]] = record
    return records


MUTANT_RECORDS = _mutant_records()


@pytest.mark.parametrize("name", sorted(CATCHERS))
def test_each_mutant_fails_its_catchers(name):
    # the whole record is pinned, so a moved sample count or witness
    # under a mutant shows as well as a changed verdict
    with tampered(name):
        results = {cid: run_check(cid, seed=0) for cid in CATCHERS[name]}
    assert {cid: r.result.verdict for cid, r in results.items()} == \
        dict.fromkeys(CATCHERS[name], FAILS)
    for cid, r in results.items():
        assert r.record() == MUTANT_RECORDS[name, cid], (name, cid)
        # a claim's failure keeps the inputs it was drawn; a crash has none
        if cid not in OWN_BODIES and not r.result.witness.startswith(
                "exception:"):
            data = r.result.witness_data
            assert type(data) is tuple and data, (name, cid)
    assert {m for m, _ in MUTANT_RECORDS} <= set(CATCHERS)
    assert {c for m, c in MUTANT_RECORDS if m == name} == set(CATCHERS[name])


def test_mutation_names_are_documented():
    from rieszlab import mutations
    assert set(MUTATIONS) >= {"latinf-collinear-meet-formula",
                              "latsup-sign-flip", "join-ties-left",
                              "pl-disjoint-one-end",
                              "pl-restrict-drops-breakpoint",
                              "pl-lattice-drops-crossing",
                              "scalar-truncates",
                              "atomic-pick-drops-denominator",
                              "pl-parts-drop-crossing",
                              "ec-prefix-unminimised",
                              "ec-parts-keep-tail",
                              "poly-horner-late-power",
                              "kernel-window-short",
                              "kernel-table-drops-top-piece",
                              "column-fold-first-cell",
                              "pl-common-skips-end-values",
                              "pl-strip-spares-a-collinear-point",
                              "pl-slice-keeps-crossing",
                              "additive-table-drops-last-piece",
                              "kernel-pieces-read-next-atom",
                              "latmeet-pieces-drop-b",
                              "zero-pieces-one-short",
                              "mod-pieces-skip-negation",
                              "lex-comment-swallows-newline",
                              "lex-col-after-newline-off-by-one",
                              "ln2-sign-first-enclosure"}
    for name in MUTATIONS:
        assert f"``{name}``" in mutations.__doc__


def test_search_classifications():
    report = search_truncated_joins({"instances": 6, "max_level": 24,
                                     "seed": 3})
    kinds = [c.classification for c in report.cases]
    descs = [c.description for c in report.cases]
    assert "stabilized" in kinds
    ramped = kinds[descs.index("ramped basis vs zero")]
    assert ramped == "monotone-unbounded"
    same = kinds[descs.index("operator vs itself")]
    assert same == "stabilized"
    assert "no claim" in report.note
    again = search_truncated_joins({"instances": 6, "max_level": 24,
                                    "seed": 3})
    assert again.lines() == report.lines()


def test_summary_lines_format():
    result = run_check("ex-4.3-pl")
    line = result.summary_line()
    parts = line.split()
    assert parts[0] == "ex-4.3-pl" and parts[1] in ("holds", "fails",
                                                    "inconclusive")
    assert parts[2].isdigit()


def test_check_suite_builds_canonical_float_free_payloads(monkeypatch):
    from rieszlab import spaces
    init = spaces.Element.__init__
    built, bad = [], []

    def recording_init(self, space, payload):
        init(self, space, payload)
        built.append(cid)
        if not is_canonical(self):
            bad.append((cid, space, payload))

    monkeypatch.setattr(spaces.Element, "__init__", recording_init)
    records = ""
    for cid in REGISTRY:
        records += "\n".join(run_check(cid, profile="quick", seed=0).record())
        records += "\n\n"
    assert len(built) > 100_000
    assert not bad, bad[:5]
    # the records are the contract: the same in the --report format as
    # the committed golden
    golden = Path(__file__).parent / "goldens" / "suite_quick_seed0.rep"
    assert records == golden.read_text(encoding="utf-8")


def test_quick_records_at_seed1_match_their_golden():
    # a second seed pinned as seed 0 is above, so that a change to the
    # fold or the rng draw order shows on two sets of records
    records = ""
    for cid in REGISTRY:
        records += "\n".join(run_check(cid, profile="quick", seed=1).record())
        records += "\n\n"
    golden = Path(__file__).parent / "goldens" / "suite_quick_seed1.rep"
    assert records == golden.read_text(encoding="utf-8")
