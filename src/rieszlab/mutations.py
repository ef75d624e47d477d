"""Documented core mutations for negative testing.

Each named mutation swaps one module-level implementation, or one
method of a space model, for a plausible-but-wrong variant; the check
suite must catch every one of them by a named failure.  Shipped
mutants:

* ``latinf-collinear-meet-formula`` -- computes the lateral infimum by
  the (x+ ^ y+) - (x- ^ y-) formula for arbitrary pairs.  Correct on
  fragments of a common base, wrong on collinear pairs such as the
  constant one against twice the constant one (it returns the smaller
  instead of zero).
* ``latsup-sign-flip`` -- adds instead of subtracting the negative-part
  supremum in the lateral supremum formula.
* ``latinf-zero`` -- lateral infimum that always returns zero; breaks
  grid reconstruction outright.
* ``join-ties-left`` -- the per-atom closed form of the operator
  lattice sends an atom whose two images tie to the left side.  The
  value is unchanged, but the recorded attaining splitting no longer
  has minimal left support; ``thm-3.2-join`` compares it against
  enumeration.
* ``pl-disjoint-one-end`` -- piecewise-linear disjointness that passes
  a merged segment when either function vanishes at either end of it,
  so tents overlapping on a slope count as disjoint.
* ``pl-restrict-drops-breakpoint`` -- the slicer that builds every
  piecewise-linear fragment from the pieces of its point
  (``spaces._pl_slice``) loses the first breakpoint strictly inside the
  first kept component that has one, and strips the rest.
* ``pl-slice-keeps-crossing`` -- the same slicer keeps the zero that two
  kept components share at a crossing inside a segment, so a fragment
  holds a collinear point and one function has two payloads.  The
  lateral supremum of a fragment and a laterally larger one builds the
  larger one canonically; ``lat-partial-order`` compares the two and
  catches it, as ``lem-4.4`` does by summing each fragment's pieces.
* ``pl-lattice-drops-crossing`` -- the integer piecewise-linear
  supremum and infimum pick the larger (smaller) value at each merged
  breakpoint but insert no crossing abscissa, so where the operands
  cross inside a segment the result cuts the corner.  The parts walk
  their operand apart from the lattice, so ``lem-4.5`` catches it by
  comparing them with the lattice formulas sup(x, 0), sup(-x, 0) and
  sup(x, -x).
* ``scalar-truncates`` -- the canonical scalar ``spaces.q`` turns a
  non-integral Fraction into ``int(value)``, so halves and thirds on the
  atomic models round toward zero.
* ``atomic-pick-drops-denominator`` -- the integer comparison of
  canonical scalars (``spaces._qless``), which the atomic suprema,
  infima and order read, leaves the denominator of its left operand
  out of the cross-product, so a Fraction on the left compares as its
  numerator.  ``thm-1.1-a``, ``thm-1.1-b``,
  ``thm-2.3-converse``, ``rem-c00``, ``thm-3.2-join`` and
  ``cor-3.3-meet`` catch it.
* ``pl-parts-drop-crossing`` -- the piecewise-linear positive part,
  negative part and modulus (``PiecewiseLinear._parts``) map each
  breakpoint value but insert no zero where a segment changes sign, so
  a part cuts the corner there; ``lem-4.5`` sees it as a part that is
  not laterally monotone.
* ``ec-prefix-unminimised`` -- the trim that builds every eventually
  constant element, from ``normalize`` and from the model's operations
  (``EventuallyConstant._element``), keeps the trailing prefix entries
  that equal the tail, so one sequence has several payloads and
  syntactic equality no longer decides equality.
* ``ec-parts-keep-tail`` -- the eventually constant positive part,
  negative part and modulus, read off each value's sign, map the prefix
  and copy the tail unchanged, so a nonzero tail keeps its sign in
  every part.
* ``poly-horner-late-power`` -- the integer Horner of ``PiecewisePoly``
  multiplies in the power of the denominator r of t = p/r one step
  late, so each numerator meets a power of r one too low.  Kernel rows
  vanish at 0, so only a quadratic row with a linear term goes wrong,
  and only at a non-integral point.  The closed forms of the operator
  lattice and the splitting enumeration both apply the mutant; the
  oracles of ``thm-3.2-join``, ``cor-3.3-meet`` and corollaries 3.4 to
  3.6 evaluate by ``eval_by_fractions`` and catch it.
* ``kernel-window-short`` -- ``Kernel.window`` returns one less than
  the largest row atom, so the level walks of the operator lattice and
  of the lateral bound scan stop one level early and lose the last
  row's atom from every later level.  ``op-level-window`` compares the
  cut tables with the full walk and catches it.
* ``pl-common-skips-end-values`` -- the piecewise-linear greatest
  common fragment keeps a component shared as an interval with the same
  breakpoints inside, without comparing the values at an end at t=0 or
  t=1, so two ramps that differ only at 0 or 1 share it.
  ``lat-common-fragment`` compares the lateral infimum with the
  restriction reference and catches it.
* ``pl-strip-spares-a-collinear-point`` -- the strip that makes
  piecewise-linear payloads canonical (``spaces._pl_strip_collinear``)
  keeps the first collinear interior point it meets, so one function
  has two payloads.  ``lat-partial-order``, ``lem-4.4`` and
  ``thm-3.2-oao`` catch it through the lateral supremum and sums, and
  so does the differential test against ``oracles.pl_pointwise``, whose
  strip is its own.
* ``kernel-table-drops-top-piece`` -- ``Cells.subset_table``, the
  column builder of an additive body's fragment table on a cell space,
  leaves the image of the last support piece out of every fragment that
  holds it.  The oracles of ``thm-3.2-join``, ``cor-3.3-meet`` and
  corollaries 3.4 to 3.6 evaluate by ``eval_by_fractions``, apart from
  the table, and catch it; so do ``thm-4.2-2`` and ``thm-4.2-3``, whose
  single-application fast path does not use the table.
* ``additive-table-drops-last-piece`` -- the table builder
  ``oplattice.fragment_images`` leaves the last piece's image out of the
  subset sums it gives an additive body, on every codomain.  The
  closed-form oracles and the single-application fast paths catch it,
  as they catch ``kernel-table-drops-top-piece``.
* ``kernel-pieces-read-next-atom`` -- ``Kernel.piece_images``, which
  the closed fold and the fragment tables read, applies each row to the
  value of the point's next support atom (the first for the last); the
  closed-form oracles and checks against single applications catch it.
* ``latmeet-pieces-drop-b`` -- ``LateralMeet.piece_images`` reads its
  pieces' images off x meet a alone, as if b were zero, so a piece
  below b keeps its image p where it should lose it.  The closed folds
  read the mutant and the applications do not: ``thm-1.1-c`` and
  ``thm-1.1-e`` compare the parts and the modulus with T(x), and
  ``thm-4.2-2`` and ``thm-4.2-3`` with the single-application fast path.
* ``zero-pieces-one-short`` -- ``ZeroOp.piece_images`` returns one zero
  fewer than the point has pieces, so the closed fold of the parts and
  of the lateral bound scan, which pairs each piece with a zero, never
  reaches the last piece.  The checks against T(x), the closed-form
  oracles, the fast paths and the scans against enumerated fragment
  images catch it.
* ``mod-pieces-skip-negation`` -- ``OpLattice.piece_images`` picks the
  modulus of each piece against T's own image instead of negate(T)'s,
  so a nested modulus reads T(p) where it should read |T(p)|.
  ``cor-3.6-pres-P`` scans a modulus body against its applications,
  which evaluate ``modulus_at`` apart from the mutant, and catches it.
* ``column-fold-first-cell`` -- the fold of a column table
  (``CellColumns.extremum``) takes the attaining masks from the first
  cell only and reads the fold off the first of them, as if one entry
  attained the extremum of every cell.  Where the left operator wins
  on one cell and the right one on another, the value is wrong; the
  same seven checks catch it.
* ``lex-comment-swallows-newline`` -- the lexer's comment pattern is
  written ``#.*``; under the pattern's DOTALL flag it runs past its
  newline, so a comment swallows the rest of the script.  No named
  check parses scripts: the differential test of ``dsl.tokenize``
  against ``dsl.tokenize_by_scan`` and the demo goldens catch it.
* ``lex-col-after-newline-off-by-one`` -- the position map of the
  token stream (``dsl.Tokens.where``) takes each line-start offset one
  character late, so a token that opens a line is placed at the end of
  the line before, and every later token on the line one column to the
  left.  Token kinds and texts are unchanged, and the demo goldens print
  no position, so their outputs stay the same.  The differential test
  of ``dsl.tokenize`` against ``dsl.tokenize_by_scan`` catches it, and
  so does the span test over the demo scripts
  (``tests/test_dsl.py::test_every_node_span_opens_its_node``).
* ``ln2-sign-first-enclosure`` -- the sign test of the series
  functional's range ``LogTwo`` (``spaces._ln2_sign``) stops after its
  first enclosure of ln 2, of width 2^-16, and takes the sign of
  a + b ln 2 at the enclosure's midpoint, so a value nearer 0 than the
  midpoint is to ln 2 can get the wrong sign.  ``ex-2.2`` decides the
  signs of r (ln 2 - p/q) for convergents p/q of ln 2 on both sides of
  it and catches it.
"""

import bisect
import dataclasses
import re
from contextlib import contextmanager
from fractions import Fraction

from . import dsl, lateral, operators, oplattice, spaces
from .spaces import zero


def _inf_meet_formula(x, y):
    return lateral.meet_formula(x, y)


def _sup_sign_flip(x, y):
    from .spaces import add, sup, pos_part, neg_part
    return add(sup(pos_part(x), pos_part(y)), sup(neg_part(x), neg_part(y)))


def _inf_zero(x, y):
    return zero(x.space)


def _side_ties_left(s, t, best):
    if s == best:
        return "left"
    if t == best:
        return "right"
    return None


def _pl_disjoint_one_end(self, x, y):
    rows = spaces._pl_merge_ints(x, y)
    return all(not a[3] or not b[3] or not a[6] or not b[6]
               for a, b in zip(rows, rows[1:]))


def _pl_lattice_drops_crossing(self, x, y, pick):
    hi = pick is max
    rows = [(t, tn, td, xn, xd, fx) if (xn * yd > yn * xd) == hi
            else (t, tn, td, yn, yd, fy)
            for t, tn, td, xn, xd, fx, yn, yd, fy in spaces._pl_merge_ints(x, y)]
    return spaces.Element(self, spaces._pl_strip_collinear(rows))


_pl_slice = spaces._pl_slice


def _pl_slice_drops_breakpoint(pts, comps, keep):
    out = list(_pl_slice(pts, comps, keep))
    for k in keep:
        _, _, i, j = comps[k]
        if i < j:
            out.remove(pts[i])
            break
    return spaces._pl_strip_collinear(spaces._pl_rows(out))


def _pl_slice_keeps_crossing(pts, comps, keep):
    out = list(_pl_slice(pts, comps, keep))
    for a, b in zip(keep, keep[1:]):
        if b == a + 1 and comps[a][3] == comps[b][2]:
            bisect.insort(out, (comps[a][1], spaces._PL_ZERO))
    return tuple(out)


_fragment_images = oplattice.fragment_images


def _additive_table_drops_last_piece(T, frags):
    if not T.atom_additive:
        return _fragment_images(T, frags)
    images = T.piece_images(frags)
    if images:
        images[-1] = zero(T.codomain)
    return T.codomain.subset_table(images)


_kernel_piece_images = operators.Kernel.piece_images


def _kernel_pieces_read_next_atom(self, frags):
    # the images at the point whose pieces take their next piece's value
    x, parts = frags.base, list(frags.parts)
    values = [x.space.get_atom(x, a) for a in parts[1:] + parts[:1]]
    return _kernel_piece_images(self, lateral.Restrictions(
        spaces.from_atoms(x.space, dict(zip(parts, values)))))


_lateral_meet_piece_images = operators.LateralMeet.piece_images


def _lateral_meet_pieces_drop_b(self, frags):
    # the images of x meet a alone, as if b were zero
    return _lateral_meet_piece_images(
        dataclasses.replace(self, b=zero(self.space)), frags)


def _zero_pieces_one_short(self, frags):
    return [zero(self.codomain)] * (len(frags.parts) - 1)


_oplattice_piece_images = oplattice.OpLattice.piece_images


def _mod_pieces_skip_negation(self, frags):
    if self.kind != "mod":
        return _oplattice_piece_images(self, frags)
    # each piece's image picked against T's own: sup(T p, T p) = T p
    return self.parts[0].piece_images(frags)


_q = spaces.q


def _q_truncates(value):
    value = _q(value)
    return int(value) if isinstance(value, Fraction) else value


def _qless_drops_denominator(a, b):
    if type(a) is int and type(b) is int:
        return a < b
    return a.numerator * b.denominator < b.numerator


def _pl_parts_drop_crossing(self, x, part):
    return spaces.Element(self, spaces._pl_strip_collinear(spaces._pl_rows(
        [(t, part(v) or spaces._PL_ZERO) for t, v in x.payload])))


def _ec_element_unminimised(self, vals):
    return spaces.Element(self, (tuple(vals[:-1]), vals[-1]))


def _ec_parts_keep_tail(self, x, part):
    prefix, tail = x.payload
    return self._element([part(v) for v in prefix] + [tail])


def _poly_horner_late_power(self, t):
    t = _q(t)
    p, r = (t, 1) if type(t) is int else (t.numerator, t.denominator)
    den, acc, rest = self._pieces[bisect.bisect_right(self.breaks, t)]
    power = 1
    for n in rest:
        acc = acc * p + n * power   # the power is raised after its use
        power *= r
    return _q(Fraction(acc, den * power))


def _kernel_window_short(self):
    return self.table[-1][0] - 1 if self.table else 0


def _pl_common_skips_end_values(self, x, y):
    px, py = x.payload, y.payload
    walk = spaces._pl_component_walk
    theirs = {(a.numerator, a.denominator, b.numerator, b.denominator):
              py[i:j] for a, b, i, j in walk(py)}
    comps = walk(px)
    keep = [k for k, (a, b, i, j) in enumerate(comps)
            if theirs.get((a.numerator, a.denominator,
                           b.numerator, b.denominator)) == px[i:j]]
    return spaces.Element(self, spaces._pl_slice(px, comps, keep))


_pl_strip_collinear = spaces._pl_strip_collinear


def _pl_strip_spares_a_collinear_point(rows):
    pts = _pl_strip_collinear(rows)
    kept = {t for t, _ in pts}
    for t, _, _, vn, vd, v in rows:
        if t not in kept:
            spared = Fraction(vn, vd) if v is None else v
            return tuple(sorted(pts + ((t, spared),)))
    return pts


_cells_subset_table = spaces.Cells.subset_table


def _cells_table_drops_top_piece(self, pieces):
    pieces = list(pieces)
    if pieces:
        pieces[-1] = self.zero()
    return _cells_subset_table(self, pieces)


def _column_fold_first_cell(self, pick):
    first = self.cols[0]
    best = pick(first)
    masks = [m for m, v in enumerate(first) if v == best]
    return self[masks[0]], masks


_TOKEN_RE_COMMENT_SWALLOWS_NEWLINE = re.compile(
    dsl._TOKEN_RE.pattern.replace(r"#[^\n]*", "#.*"), dsl._TOKEN_RE.flags)


def _ln2_sign_first_enclosure(a, b):
    lo, hi = spaces.ln2_enclosure(Fraction(1, 1 << spaces._LN2_FIRST_BITS))
    v = a + b * (lo + hi) * Fraction(1, 2)
    return (v > 0) - (v < 0)


def _where_line_start_late(self, pos):
    starts = [0] + [s + 1 for s in self.line_starts[1:]]
    line = bisect.bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


# name -> (module or class, attribute, mutant implementation)
MUTATIONS = {
    "latinf-collinear-meet-formula": (lateral, "_greatest_common_fragment",
                                      _inf_meet_formula),
    "latsup-sign-flip": (lateral, "join_formula", _sup_sign_flip),
    "latinf-zero": (lateral, "_greatest_common_fragment", _inf_zero),
    "join-ties-left": (oplattice, "_side", _side_ties_left),
    "pl-disjoint-one-end": (spaces.PiecewiseLinear, "disjoint",
                            _pl_disjoint_one_end),
    "pl-restrict-drops-breakpoint": (spaces, "_pl_slice",
                                     _pl_slice_drops_breakpoint),
    "pl-slice-keeps-crossing": (spaces, "_pl_slice",
                                _pl_slice_keeps_crossing),
    "additive-table-drops-last-piece": (oplattice, "fragment_images",
                                        _additive_table_drops_last_piece),
    "kernel-pieces-read-next-atom": (operators.Kernel, "piece_images",
                                     _kernel_pieces_read_next_atom),
    "latmeet-pieces-drop-b": (operators.LateralMeet, "piece_images",
                              _lateral_meet_pieces_drop_b),
    "zero-pieces-one-short": (operators.ZeroOp, "piece_images",
                              _zero_pieces_one_short),
    "mod-pieces-skip-negation": (oplattice.OpLattice, "piece_images",
                                 _mod_pieces_skip_negation),
    "pl-lattice-drops-crossing": (spaces.PiecewiseLinear, "lattice",
                                  _pl_lattice_drops_crossing),
    "scalar-truncates": (spaces, "q", _q_truncates),
    "atomic-pick-drops-denominator": (spaces, "_qless",
                                      _qless_drops_denominator),
    "pl-parts-drop-crossing": (spaces.PiecewiseLinear, "_parts",
                               _pl_parts_drop_crossing),
    "ec-prefix-unminimised": (spaces.EventuallyConstant, "_element",
                              _ec_element_unminimised),
    "ec-parts-keep-tail": (spaces.EventuallyConstant, "_parts",
                           _ec_parts_keep_tail),
    "poly-horner-late-power": (operators.PiecewisePoly, "__call__",
                               _poly_horner_late_power),
    "kernel-window-short": (operators.Kernel, "window", _kernel_window_short),
    "pl-common-skips-end-values": (spaces.PiecewiseLinear, "common_fragment",
                                   _pl_common_skips_end_values),
    "pl-strip-spares-a-collinear-point": (spaces, "_pl_strip_collinear",
                                          _pl_strip_spares_a_collinear_point),
    "kernel-table-drops-top-piece": (spaces.Cells, "subset_table",
                                     _cells_table_drops_top_piece),
    "column-fold-first-cell": (spaces.CellColumns, "extremum",
                               _column_fold_first_cell),
    "lex-comment-swallows-newline": (dsl, "_TOKEN_RE",
                                     _TOKEN_RE_COMMENT_SWALLOWS_NEWLINE),
    "lex-col-after-newline-off-by-one": (dsl.Tokens, "where",
                                         _where_line_start_late),
    "ln2-sign-first-enclosure": (spaces, "_ln2_sign",
                                 _ln2_sign_first_enclosure),
}


@contextmanager
def tampered(name: str):
    """Temporarily install the named mutant implementation.

    This swaps a module or class attribute, so it is meant for tests
    that run one thread at a time.
    """
    module, attr, impl = MUTATIONS[name]
    original = getattr(module, attr)
    setattr(module, attr, impl)
    try:
        yield
    finally:
        setattr(module, attr, original)
