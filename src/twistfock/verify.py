"""Window-exact verification suite for the cyclic-twist construction.

Every structural identity of the construction is packaged as a named check
that evaluates two independently computed coefficient maps over an explicit
exponent window and reports exact mismatches.  Nothing is approximated or
sampled loosely: a check passes only when every compared coefficient agrees
exactly and at least one coefficient was compared.

The negative result is first-class.  For odd tensor order the
supercommutator of two odd first-slot fields fails the even-order residue
identity on a nonempty set of coefficients, while the corrected identity —
whose kernel lattice is shifted by (parity of the left argument)/(2·order)
— passes.  Both facts are recorded as expected verdicts, so the suite can
distinguish "failed as the theory predicts" from "failed unexpectedly".

The checks read the fields of `twist` through their one mode interface.
A field carries the data of its residue kernel, so the commutator engine
takes two fields and nothing more about them: the kernel lattice from
their scale, the kernel's root of unity from their slot powers, and the
field of each product state u_t v from ``field_of``.  A field also bounds
its own modes: ``field.mode(M, state)`` is zero off its class lattice and
above ``field.top(state)``, so no check here derives either bound.  Two
fields composed in both orders are one `_Pair`, with their scalar table
and exchange sign.

The expanded product of (x1 - x2)^n Y(u, x1) Y(v, x2) is one list of
summands, each a composite A(a')B(b')w with an int binomial weight, n + 1
of them for n >= 0 (`_product_terms`).  The three-variable identity and
weak associativity add those weights to linear forms over the composites
over one running denominator (`_product_form`), and one evaluator reads
every form (`_form_value`): only the composites whose weights do not
cancel are read, each once per domain word.  The three-variable identity
compares each grid point as one form, left minus right, and reads a left
side only for a witness.  `_ModeFamily` caches the images for one check.

Every operator check acts on `_domain`: the words of the sector that its
field names (``field.sector``, the parity-twisted module `R` for every
field of `twist`), with their states and texts.  `_require_pair`,
`_pair_label`, `_window_str` and `_axis_texts` write a check's preamble,
name, window and locations.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import groupby

from .scalars import (
    ONE,
    QQ,
    ZERO,
    binomial,
    eta_powers,
    integral_split,
    is_rational,
    rational_ceil,
    rational_floor,
    require_conductor,
    require_order,
    scalar_str,
)
from .formal import (
    ComparisonResult,
    DeltaIdentity,
    Window,
    compare_fields,
    verify_delta_identity,
)
from .fermion import (
    CENTRAL_CHARGE,
    NS,
    OMEGA,
    PSI,
    VACUUM,
    R,
    State,
    ZERO_STATE,
    _add,
    combine,
    vertex_mode,
    virasoro,
    word_level,
)
from .ramond import sigma_vertex_mode
from .deltak import (
    check_L_minus1_identities,
    check_conjugation,
    check_f_composition,
    require_conjugation_depth,
    round_trip_defect,
)
from .twist import (
    RecoveredField,
    SlotField,
    TwistedModuleView,
    eta_scalars,
    require_cutoff,
    require_even_order,
)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class CheckReport:
    """Outcome of one named, window-exact check.

    ``mismatches`` holds (location, left value, right value) string triples;
    the verdict is "pass" exactly when no mismatches were found AND at least
    one coefficient was compared, so a vacuous run can never pass.  The
    expected verdict makes negative results first-class: a check that is
    supposed to fail (the odd-order obstruction) is in order exactly when
    ``verdict == expected_verdict``.
    """

    __slots__ = ("name", "k", "window", "compared", "mismatches",
                 "expected_verdict", "detail")

    def __init__(self, name: str, k: int, window: str, compared: int,
                 mismatches: tuple, expected_verdict: str = "pass",
                 detail: str = ""):
        values = (name, k, window, compared, mismatches, expected_verdict, detail)
        for attr, value in zip(self.__slots__, values):
            object.__setattr__(self, attr, value)

    def __setattr__(self, name, value):
        raise AttributeError("CheckReport is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, attr) for attr in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._values())
        return f"CheckReport({', '.join(f'{a}={v!r}' for a, v in pairs)})"

    @property
    def verdict(self) -> str:
        return "pass" if (self.compared > 0 and not self.mismatches) else "fail"

    @property
    def as_expected(self) -> bool:
        return self.verdict == self.expected_verdict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k": int(self.k),
            "window": self.window,
            "compared": int(self.compared),
            "mismatch_count": len(self.mismatches),
            "mismatches": [list(m) for m in self.mismatches],
            "verdict": self.verdict,
            "expected_verdict": self.expected_verdict,
            "as_expected": self.as_expected,
            "detail": self.detail,
        }


def suite_passed(reports, *, strict: bool = False) -> bool:
    """True when every report came out as expected (including expected
    failures); with ``strict``, every report must also pass."""
    return all(r.as_expected and (not strict or r.verdict == "pass")
               for r in reports)


def suite_json(reports) -> str:
    """Deterministic JSON rendering of a list of reports."""
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def suite_table(reports) -> str:
    """Deterministic fixed-width table rendering of a list of reports."""
    lines = [
        f"{'check':<52} {'k':>2} {'verdict':<7} {'expected':<8} "
        f"{'compared':>9} {'bad':>5}  detail"
    ]
    lines.append("-" * len(lines[0]))
    for r in reports:
        lines.append(
            f"{r.name:<52} {r.k:>2} {r.verdict:<7} {r.expected_verdict:<8} "
            f"{r.compared:>9} {len(r.mismatches):>5}  {r.detail}"
        )
    ok = sum(1 for r in reports if r.as_expected)
    lines.append("-" * len(lines[0]))
    lines.append(
        f"{ok}/{len(reports)} checks as expected"
        + ("" if ok == len(reports) else "  <-- UNEXPECTED RESULTS")
    )
    return "\n".join(lines) + "\n"


def _wrap_comparison(result: ComparisonResult, k: int, window: str, *,
                     expected_verdict: str = "pass", detail: str = "") -> CheckReport:
    """The report of a comparison: the one place a CheckReport is built.

    Locations and string values pass through; a state witness is rendered as
    a sum of Ramond words, any other value with ``scalar_str``.
    """

    def rendered(value) -> str:
        if isinstance(value, State):
            return value.render(R)
        return scalar_str(value)

    mismatches = tuple(
        (str(loc), rendered(a), rendered(b)) for loc, a, b in result.mismatches
    )
    return CheckReport(
        result.name, k, window, result.compared, mismatches, expected_verdict, detail
    )


# ---------------------------------------------------------------------------
# fields, their mode reader and the expanded products
# ---------------------------------------------------------------------------


class _ModeFamily:
    """The mode reader of the expanded-product checks: one field's rational
    images, cached per (index, state) for one check.  `_form_value` reads
    each composite's inner and outer image through it, for the
    three-variable identity and for weak associativity, and many
    composites share an inner image.  Its ``mode`` is the read that the
    benchmark's layer tracer counts.

    ``mode(M, state)`` is the field's own bounded read, cached; every other
    attribute is the field's.
    """

    def __init__(self, field):
        self.field = field
        self._cache = {}

    def __getattr__(self, name):
        return getattr(self.field, name)

    def mode(self, M: int, state: State) -> State:
        # above the top the image is zero, and no entry is kept for it
        if M > self.field.top(state):
            return ZERO_STATE
        key = (M, state)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self.field.mode(M, state)
        return hit


class _Pair(namedtuple("_Pair", "left right scalars eps")):
    """Two fields composed in both orders, built once per check by `_pair`:
    entry j of ``scalars`` is the scalar of left(a) right(b), in either
    order, when the eta classes of a and b sum to j mod k (the product of
    the prefactors times eta^j, a QQ where rational), so a composed pair
    costs one lookup, and `_form_value` one per eta class of a form;
    ``eps`` is the exchange sign (-1)^{|A||B|}.  The two are bare fields
    or `_ModeFamily`s: both read ``mode`` on the int index.
    """

    __slots__ = ()


def _pair(left, right) -> _Pair:
    scalars = eta_scalars(len(left.scalars),
                          left.scalars[0] * right.scalars[0])
    return _Pair(left, right, scalars,
                 -ONE if (left.parity and right.parity) else ONE)


def _require_usable(u: State, role: str) -> None:
    if u.is_zero() or u.homogeneous_level() is None:
        raise ValueError(f"{role} must be a nonzero homogeneous state")


def _slot_field(k: int, u: State, *, slot: int = 1) -> SlotField:
    """The twisted field of a state placed in one tensor slot.

    Built for every order k >= 1: even orders give the module action, odd
    orders give the field whose failed identity is the obstruction
    evidence.
    """
    if not 1 <= slot <= k:
        raise ValueError(f"tensor slot must lie in 1..{k}, got {slot}")
    return SlotField(k, u, slot - 1)


def _product_terms(inner, n: int, a: int, b: int, state: State) -> list:
    """The (outer index, inner index, weight) of each summand of
        sum_{i>=0} (-1)^i C(n, i) outer(a - i step) inner(b + i step) state,
    the modes of (x1 - x2)^n Y(u, x1) Y(v, x2) expanded in nonnegative
    powers of x2, on the fields' int index; the weight is the int
    (-1)^i C(n, i).  For n >= 0 the binomial has n + 1 terms and the sum
    stops there; for n < 0 it stops where the inner modes pass their top
    on the state and kill it."""
    step = inner.scale
    top = inner.top(state)
    if n >= 0:
        top = min(top, b + step * n)
    terms = []
    for i, m in enumerate(range(b, top + 1, step)):
        c = binomial(n, i).numerator
        terms.append((a - i * step, m, -c if i % 2 else c))
    return terms


def _product_form(table: dict, den: int, pair: _Pair, order: int, n: int,
                  a: int, b: int, state: State, scale=ONE) -> int:
    """Add one ordered half of an expanded product, the `_product_terms` of
    outer(a) inner(b) on ``state`` times ``scale``, to a linear form over
    the composites; outer is pair[order] and inner pair[1 - order].
    table[(j, order, a', b')] gains the int weight of outer(a') inner(b'),
    j the eta class of the half's scalar (a shift by a whole mode moves a
    class by a multiple of k), held by `fermion._add` as int numerators
    over one running denominator, which is returned.  No mode is read."""
    outer, inner = pair[order], pair[1 - order]
    terms = _product_terms(inner, n, a, b, state)
    c_outer, c_inner = outer.eta_class(a), inner.eta_class(b)
    if terms and c_outer is not None and c_inner is not None:
        j = (c_outer + c_inner) % len(pair.scalars)
        den = _add(table, den, [((j, order, a_i, m), c) for a_i, m, c in terms],
                   scale.numerator, scale.denominator)
    return den


def _bracket_form(table: dict, den: int, pair: _Pair, n: int, a: int,
                  b: int, state: State, scale=ONE) -> int:
    """Add the bracket expansion of (x1 - x2)^n at one grid point to a
    linear form over the composites as two `_product_form` halves: the
    ordered half left(a) right(b), order 0, and the swapped half, order 1,
    right(b + step n) left(a - step n) with the supersymmetry sign of the
    exchange, -eps for even n and eps for odd."""
    step = pair.left.scale
    sign = -pair.eps if n % 2 == 0 else pair.eps
    den = _product_form(table, den, pair, 0, n, a, b, state, scale)
    return _product_form(table, den, pair, 1, n, b + step * n, a - step * n,
                         state, scale * sign)


def _jacobi_bracket(step: int, r: int, e1: int, e2: int) -> tuple:
    """The (n, a, b) of the bracket whose expansion is the left side of the
    three-variable identity at x0^{-r-1} x1^e1 x2^e2 (see `_jacobi_left`)."""
    return r, step * (r - 1) - e1, -e2 - step


def _field_product_brackets(pair: _Pair, n_loc: int, r: int, t: int,
                            mu: int) -> list:
    """The (n, a, b, scale) of each bracket of `_field_product_form`."""
    k = len(pair.scalars)
    r_frac = QQ(r, k)
    step = pair.left.scale
    shift = step * r // k  # the index of r/k
    brackets = []
    for i in range(0, n_loc - t):
        coeff_i = binomial(r_frac, i)
        if coeff_i == 0:
            continue
        if i % 2:
            coeff_i = -coeff_i
        brackets.append((t + i, shift + step * t, mu - shift, coeff_i))
    return brackets


def _field_product_form(pair: _Pair, n_loc: int, r: int, t: int, mu: int,
                        state: State) -> tuple:
    """Mode ``mu`` of the t-th product of two mutually local twisted fields,
    restricted to the component of the left field on the exponent class
    r/k + Z, k the length of the pair's scalar table, as a linear form over
    the composites on the words of the level of ``state``: (den, table),
    the table as `_bracket_form` builds it.

    The product of fields is expanded with the fractional binomial factor
    carrying the exponent class; because a power ``n_loc`` of the coordinate
    difference annihilates the supercommutator of the two fields, every
    expansion order i with t + i >= n_loc cancels identically, so the outer
    sum is finite.  Each order is one `_bracket_form` of power t + i, with
    the (n, a, b, scale) of `_field_product_brackets`.  Mode indices that
    fall off a field's exponent lattice contribute zero.
    """
    table, den = {}, 1
    for n, a, b, scale in _field_product_brackets(pair, n_loc, r, t, mu):
        den = _bracket_form(table, den, pair, n, a, b, state, scale)
    return den, table


def _form_value(pair: _Pair, table: dict, den: int, state: State,
                composites: dict) -> State:
    """The value on ``state`` of a linear form over the composites.

    The composite A(a')B(b') state (order 0) or B(a')A(b') state (order 1)
    of each key is read once per state, through the pair's members, into
    ``composites``; its rational image, times the key's int weight, is
    summed by `fermion._add` into one numerator dict per eta class, and
    each class sum is added to the value times its scalar, once.  A form
    whose class sums all cancel is `ZERO_STATE`, with no scalar applied.
    """
    sums = {}
    for key, num in table.items():
        image = composites.get(key)
        if image is None:
            _, order, a, b = key
            image = pair[1 - order].mode(b, state)
            if image.nums:
                image = pair[order].mode(a, image)
            composites[key] = image
        if image.nums:
            nums, acc_den = sums.get(key[0]) or ({}, 1)
            sums[key[0]] = nums, _add(nums, acc_den, image.nums, num,
                                      den * image.den)
    out, out_den = {}, 1
    for j, (nums, acc_den) in sums.items():
        if nums:
            n, d = integral_split(pair.scalars[j])
            out_den = _add(out, out_den, nums.items(), n, acc_den * d)
    return State._of_table(out_den, out)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _lattice_grid(window: Window, var: str, den: int, scale: int) -> range:
    """The exponents of the (1/den)-lattice in the window's bounded range
    of ``var``, as int indices scale·e (den divides scale)."""
    lo, hi = _bounds(window, var)
    step = scale // den
    return range(rational_ceil(QQ(lo) * den) * step,
                 rational_floor(QQ(hi) * den) * step + 1, step)


def _bounds(window: Window, var: str):
    lo, hi = window.bounds_for(var)
    if lo is None or hi is None:
        raise ValueError(f"this check needs a bounded window for {var}")
    return lo, hi


def _field_column(field):
    """The column function (see `formal.compare_fields`) of a field: its
    x^{e/scale} coefficient on a basis word, mode -e - scale with its
    scalar."""

    def column(e, word):
        M = -e - field.scale
        image = field.mode(M, State._of(1, ((word, 1),)))
        if image.nums:
            image = image.scaled(field.scalars[field.eta_class(M)])
        return image.den, image.nums

    return column


def _domain(field, domain_level) -> list:
    """The domain of every operator check: the words of the sector that
    ``field`` acts on, up to ``domain_level``, in basis order, each as
    (word, state, text)."""
    sector = field.sector
    return [(word, State._of(1, ((word, 1),)), sector.format_word(word))
            for word in sector.basis(QQ(domain_level))]


def _window_str(window: Window) -> str:
    return "; ".join(f"{var} in [{lo}, {hi}]"
                     for var, (lo, hi) in sorted(window.bounds.items()))


def _axis_texts(var: str, grid, scale: int, end: str = " ") -> dict:
    """The location text "var^e" of each int index of a grid, e the index
    over ``scale``, followed by ``end``."""
    return {e: f"{var}^{QQ(e, scale)}{end}" for e in grid}


def _signed_binomials(e: int, step: int, orders) -> list:
    """(-1)^t C(e/step + t, t) for each order t: the kernel coefficients of
    a residue at the exponent e/step, e an int index."""
    return [(-1) ** t * binomial(QQ(e + step * t, step), t) for t in orders]


def _require_pair(k: int, u: State, v: State) -> None:
    """The preamble of a two-field check of even order."""
    require_even_order(k)
    _require_usable(u, "left argument")
    _require_usable(v, "right argument")


def _pair_label(u: State, v: State) -> str:
    return f"{_state_label(u)},{_state_label(v)}"


def _state_label(u: State) -> str:
    if u == PSI:
        return "psi"
    if u == OMEGA:
        return "omega"
    if u == VACUUM:
        return "vacuum"
    return f"wt={u.homogeneous_level()}"


def _iterate_top(u: State, v: State) -> int:
    """Largest t for which the t-th product u_t v can be nonzero: the
    grading of the untwisted module is bounded below by zero."""
    return int(rational_floor(u.homogeneous_level() + v.homogeneous_level() - 1))


# ---------------------------------------------------------------------------
# the residue-commutator engine
# ---------------------------------------------------------------------------


def _supercommutator_grid(pair: _Pair, target: State, grid1, grid2):
    """Yield (e1, e2, [A(-e1-1), B(-e2-1)] w) over the exponent grid, e2
    outer and e1 inner, for the fields A and B of the pair and a domain
    state w; exponents are int indices on the fields' scale.  The bracket
    is the supercommutator A B - eps B A.  Both orders compose the same two
    modes, so the bracket has one scalar, looked up in the pair's table
    once per grid point.  What the grid revisits is kept here, with no
    mode cache: the image of A per e1 and of B per e2; a zero image has no
    level, so no mode acts after it.  A point where neither composite is
    nonzero yields `ZERO_STATE` with no scalar looked up or combined."""
    left, right, scalars, eps = pair
    sign = -eps
    step = left.scale
    a_images = []
    for e1 in grid1:
        m1 = -e1 - step
        a_images.append((e1, m1, left.eta_class(m1), left.mode(m1, target)))
    for e2 in grid2:
        m2 = -e2 - step
        c2 = right.eta_class(m2)
        b = right.mode(m2, target)
        for e1, m1, c1, a in a_images:
            # a mode off its class lattice is zero, so a nonzero composite
            # has both classes
            ab = left.mode(m1, b) if b.nums else ZERO_STATE
            ba = right.mode(m2, a) if a.nums else ZERO_STATE
            if not (ab.nums or ba.nums):
                yield e1, e2, ZERO_STATE
                continue
            scalar = scalars[(c1 + c2) % len(scalars)]
            pairs = []
            if ab.nums:
                pairs.append((ab, scalar))
            if ba.nums:
                pairs.append((ba, sign * scalar))
            yield e1, e2, combine(pairs)


def _commutator_report(k_report: int, left, right, window: Window, *,
                       forms, domain_level=QQ(2)) -> tuple:
    """Compare a supercommutator of two fields with its residue form.

    Left side, per exponent pair (e1, e2) and domain word w:
        A(-e1-1) B(-e2-1) w  -  (-1)^{|A||B|} B(-e2-1) A(-e1-1) w.
    Right side: the residue of the product-state kernel,
        (2/S) * sum_{t>=0} C(e1+t, t) (-1)^t eta^{c(e1+t)}
                * (mode -e1-e2-t-2 of right.field_of(u_t v)) w,
    supported on e1 in kernel_shift + (2/S)Z and zero elsewhere, with S
    the fields' ``scale`` (2k for slot fields, 2 for parity-twisted ones),
    u and v their ``state``s and the kernel's eta class
    c(n) = (left.power - right.power)·k·n, 0 for two fields in one slot.
    The exponent grid is the (1/S)-lattice, so it also holds the points off
    the kernel lattice where the commutator must vanish.  Fields and
    exponents are read on the int index S·m, decoded only in the location
    text; every scalar is a lookup in a table built once per check: the
    `_Pair` table of the two fields for the left side, each product
    field's ``scalars`` for the residue.

    ``forms`` is a tuple of (name, kernel_shift, expected_verdict) triples,
    one report each, in order, with the shift as the int S·kernel_shift.
    Only the kernel-lattice test depends on the form: the grid, the
    product-state fields and the residue modes are computed once for all
    of them.  So the forms' right sides differ exactly where the residue is
    nonzero and some but not all forms hold e1 on their lattice; a form
    expected to fail can fail only at such a point, and a window without
    one is refused with ValueError.

    A point that is zero by construction is counted, once per form, but
    not built: the grid yields it with no `combine`, a residue whose
    iterate images at e1 + e2 are all zero is `ZERO_STATE` with no kernel
    term read, and a location text is built only for a mismatch.
    """
    step = left.scale
    grid1 = _lattice_grid(window, "x1", step, step)
    grid2 = _lattice_grid(window, "x2", step, step)
    iterates = []
    for t in range(0, _iterate_top(left.state, right.state) + 1):
        it = vertex_mode(left.state, t, right.state)
        if not it.is_zero():
            iterates.append((t, right.field_of(it)))
    prefactor = QQ(2, step)
    power = left.power - right.power
    pair = _pair(left, right)
    results = [(ComparisonResult(name), shift) for name, shift, _ in forms]

    # per e1, computed once for every word: the forms whose kernel lattice
    # holds e1 (e1 - shift an even index), the x1 text of its locations and,
    # where some form needs the residue, the signed binomials
    # (-1)^t C(e1+t, t) of the iterates with the eta class c(n) of the kernel
    # at n = e1 + t, power·k·n = power·(S·n)/2 on the even index S·n
    on_lattice = {
        e1: tuple((e1 - shift) % 2 == 0 for _, shift in results)
        for e1 in grid1
    }
    x1_text = _axis_texts("x1", grid1, step)
    x2_text = _axis_texts("x2", grid2, step, " @ ")
    orders = [t for t, _ in iterates]
    witnesses = 0  # the points where the forms' right sides differ
    kernel_terms = {
        e1: tuple(
            (binom, power * (e1 + step * t) // 2)
            for t, binom in zip(orders, _signed_binomials(e1, step, orders))
        )
        for e1 in grid1 if any(on_lattice[e1])
    }

    for _, target, word_text in _domain(left, domain_level):
        # e1 + e2 -> for each iterate whose mode -e1-e2-t-2 on the word is
        # nonzero: its position, scalars, image and the mode's eta class
        images = {}

        def residue(e1, e2) -> State:
            total = e1 + e2
            hit = images.get(total)
            if hit is None:
                hit = images[total] = []
                for i, (t, field) in enumerate(iterates):
                    mu = -total - step * (t + 2)
                    image = field.mode(mu, target)
                    if image.nums:
                        hit.append((i, field.scalars, image, field.eta_class(mu)))
            if not hit:
                return ZERO_STATE
            kernel = kernel_terms[e1]
            terms = []
            for i, scalars_t, image, j in hit:
                binom, shift = kernel[i]
                terms.append((image, binom * scalars_t[(j + shift) % len(scalars_t)]))
            return combine(terms).scaled(prefactor)

        for e1, e2, lhs in _supercommutator_grid(pair, target, grid1, grid2):
            rhs = None
            for (result, _), on in zip(results, on_lattice[e1]):
                if on and rhs is None:
                    rhs = residue(e1, e2)
                side = rhs if on else ZERO_STATE
                # `ComparisonResult.compare`, with the location text built
                # only for a mismatch
                result.compared += 1
                if lhs != side:
                    result.mismatches.append(
                        (x1_text[e1] + x2_text[e2] + word_text, lhs, side))
            if rhs is not None and rhs.nums and not all(on_lattice[e1]):
                witnesses += 1
    window_text = _window_str(window)
    for name, _, expected in forms:
        if expected == "fail" and not witnesses:
            raise ValueError(
                f"{name} cannot fail on the window {window_text}: at no "
                "point there does its residue side differ from another "
                "form's; widen the window")
    return tuple(
        _wrap_comparison(result, k_report, window_text, expected_verdict=expected)
        for (result, _), (_, _, expected) in zip(results, forms)
    )


# ---------------------------------------------------------------------------
# named checks: commutators
# ---------------------------------------------------------------------------


def check_even_supercommutator(
    k: int, u: State, v: State, window: Window, *, domain_level=QQ(2)
) -> CheckReport:
    """Supercommutator of two first-slot twisted fields against the
    residue of their product-state field, for even tensor order.

    The kernel lattice is the plain (1/k)-lattice: no correction factor is
    needed, which is exactly what fails for odd order.
    """
    _require_pair(k, u, v)
    name = f"even-supercommutator[k={k},{_pair_label(u, v)}]"
    (report,) = _commutator_report(
        k, _slot_field(k, u), _slot_field(k, v), window,
        forms=((name, 0, "pass"),), domain_level=domain_level,
    )
    return report


def check_odd_obstruction(
    k: int, u: State, v: State, window: Window, *, domain_level=QQ(2)
) -> tuple:
    """The odd-order negative result, as an (expected-fail, pass) pair.

    Report A evaluates the even-order identity at odd order; for an odd
    left argument it must FAIL on at least one coefficient — the
    construction cannot produce a module there.  Report B evaluates the
    corrected identity whose kernel lattice is shifted by
    parity(u)/(2·order); it must pass.  For an even left argument the shift
    vanishes and both reports coincide and pass.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(
            f"the obstruction evidence needs an odd tensor order, got k={k}"
        )
    _require_usable(u, "left argument")
    _require_usable(v, "right argument")
    parity = u.homogeneous_parity()
    base = f"k={k},{_pair_label(u, v)}"
    return _commutator_report(
        k, _slot_field(k, u), _slot_field(k, v), window,
        forms=(
            (f"obstruction-even-form[{base}]", 0, "fail" if parity else "pass"),
            # the shift parity/(2k), on the index 2k·e
            (f"obstruction-odd-form[{base}]", parity, "pass"),
        ),
        domain_level=domain_level,
    )


def check_cross_slot_commutator(
    k: int, u: State, v: State, left_slot: int, right_slot: int,
    window: Window, *, domain_level=QQ(2),
) -> CheckReport:
    """Supercommutator of twisted fields living in two tensor slots.

    The residue side places the product state in the right argument's slot
    and weights the kernel coefficient at exponent n by the
    (left_slot - right_slot)·k·n-th power of the primitive root of unity.
    """
    _require_pair(k, u, v)
    label = (f"cross-slot-commutator[k={k},slots={left_slot},{right_slot},"
             f"{_pair_label(u, v)}]")
    (report,) = _commutator_report(
        k, _slot_field(k, u, slot=left_slot), _slot_field(k, v, slot=right_slot),
        window, forms=((label, 0, "pass"),), domain_level=domain_level,
    )
    return report


def check_recovered_commutator(
    k: int, u: State, v: State, window: Window, *, domain_level=QQ(2),
) -> CheckReport:
    """Supercommutator of parity-twisted fields against the residue form
    with the half-parity-shifted integer kernel lattice.

    The fields are the ones recovered from the twisted module through the
    inverse construction, certifying that the recovery really is a
    parity-twisted field map.
    """
    _require_pair(k, u, v)
    label = f"parity-twisted-commutator[recovered,k={k},{_pair_label(u, v)}]"
    (report,) = _commutator_report(
        k, RecoveredField(k, u), RecoveredField(k, v), window,
        # the shift parity/2, on the index 2·e
        forms=((label, u.homogeneous_parity(), "pass"),),
        domain_level=domain_level,
    )
    return report


# ---------------------------------------------------------------------------
# the full three-variable identity
# ---------------------------------------------------------------------------


def _jacobi_left(pair: _Pair, r: int, e1: int, e2: int, state: State,
                 composites: dict) -> State:
    """The x0^{-r-1} x1^e1 x2^e2 coefficient of the left side of the
    three-variable identity on one state, e1 and e2 as int indices on the
    families' scale, its composites read through the word's
    ``composites`` (see `_form_value`).

    First kernel: x0^{-1} delta((x1-x2)/x0) A(x1) B(x2), whose x0^{-r-1}
    part is (x1-x2)^r.  Second kernel: x0^{-1} delta((x2-x1)/(-x0))
    B(x2) A(x1), whose x0^{-r-1} part is (-1)^r (x2-x1)^r, scaled by the
    supersymmetry sign -eps of the swapped product.  The bracket's (n, a,
    b) is `_jacobi_bracket`.
    """
    table = {}
    den = _bracket_form(table, 1, pair,
                        *_jacobi_bracket(pair.left.scale, r, e1, e2), state)
    return _form_value(pair, table, den, state, composites)


def _jacobi_forms(pair: _Pair, n_loc: int, grid0, grid1, grid2,
                  state: State) -> list:
    """The linear form, left minus right side, of the three-variable
    identity at each grid point (alpha, e1, e2), in grid order, on the
    words of the level of ``state``: (alpha, e1, e2, den, table), the table
    as `_bracket_form` builds it.  The right side is the i-sum of
    `check_twisted_jacobi`, each term a `_field_product_form` kept per
    (class, t, mu)."""
    step = pair.left.scale
    k = len(pair.scalars)
    # per e1 the signed right-side binomials (-1)^i C(e1 + i, i) for every
    # order i the x0 grid reaches
    i_max = n_loc + max(grid0, default=-1)
    kernel = {e1: _signed_binomials(e1, step, range(i_max + 1)) for e1 in grid1}
    rhs_forms = {}
    forms = []
    for alpha in grid0:
        r = -alpha - 1
        for e1 in grid1:
            # the exponent class of the left field: -k(e1 + i) mod k
            r_cls = (-(e1 // 2)) % k
            binoms = kernel[e1]
            for e2 in grid2:
                table = {}
                den = _bracket_form(table, 1, pair,
                                    *_jacobi_bracket(step, r, e1, e2), state)
                for i in range(0, n_loc + alpha + 1):
                    base = binoms[i]
                    if base == 0:
                        continue
                    key = (r_cls, i - alpha - 1, -e1 - e2 - step * (i + 2))
                    form = rhs_forms.get(key)
                    if form is None:
                        form = rhs_forms[key] = _field_product_form(
                            pair, n_loc, *key, state)
                    f_den, f_table = form
                    if f_table:
                        den = _add(table, den, f_table.items(),
                                   -base.numerator, base.denominator * f_den)
                forms.append((alpha, e1, e2, den, table))
    return forms


def check_twisted_jacobi(
    k: int, u: State, v: State, window: Window, *, domain_level=QQ(2)
) -> CheckReport:
    """The full three-variable identity for two first-slot twisted fields.

    Left side: the two binomially expanded delta-kernel products in
    (x1-x2)/x0 and (x2-x1)/(-x0).  Right side: the rotation-averaged kernel
    sum over the k exponent classes.  Averaging the k-th roots of unity
    kills every class but one per kernel order, so each right-side term is a
    single product of the two twisted fields restricted to one exponent
    class of the first, evaluated through the locality-truncated field
    product (the fields supercommute after multiplication by a power of the
    coordinate difference, which cuts the fractional binomial expansion to
    finitely many orders).  It is not a normal-ordered product of slot
    fields for the iterate Y(g^j u, x0) v: that product lacks the
    fractional binomial C(r/k, i) corrections of the twisted iterate formula
    (H. Li 1996; Barron-Dong-Mason 2002) and differs at x0^{>=0}.  All
    three exponents are compared coefficient-exactly; x1 and x2 run over
    int indices 2k·e.

    Both sides are rational combinations of the composites A(a')B(b')w and
    B(a')A(b')w of the same two fields, with the pair's scalar of one eta
    class j per composite.  So each grid point on a domain word w is one
    linear form, left minus right, over the keys (j, order, a', b'): every
    bracket adds int weights to it over one running denominator
    (`_bracket_form`), the field products' forms are kept per (class, t,
    mu), and the words of one level share every form (`_jacobi_forms`).
    The composites whose weights cancel are never read; the rest are read
    once per word by `_form_value`, the one reader of every form, whose
    value at a point is the defect, left minus right.  Only a point with a
    nonzero defect reads its left side, `_jacobi_left`, through the same
    composites, so its witness is that side and the left side minus the
    defect.
    """
    _require_pair(k, u, v)
    pair = _pair(_ModeFamily(_slot_field(k, u)), _ModeFamily(_slot_field(k, v)))
    step = pair.left.scale
    grid0 = _lattice_grid(window, "x0", 1, 1)
    grid1 = _lattice_grid(window, "x1", k, step)
    grid2 = _lattice_grid(window, "x2", k, step)
    # (x1 - x2)^n_loc kills the supercommutator: its poles have order at
    # most _iterate_top + 1, one per iterate u_t v
    n_loc = _iterate_top(u, v) + 2
    x0_text = _axis_texts("x0", grid0, 1)
    x1_text = _axis_texts("x1", grid1, step)
    x2_text = _axis_texts("x2", grid2, step, " @ ")
    result = ComparisonResult(f"twisted-jacobi[k={k},{_pair_label(u, v)}]")
    # a form reads its state only through the tops, so the words of one
    # level share their forms
    for _, words in groupby(_domain(pair.left, domain_level),
                            key=lambda entry: word_level(entry[0])):
        words = list(words)
        forms = _jacobi_forms(pair, n_loc, grid0, grid1, grid2, words[0][1])
        for _, target, word_text in words:
            composites = {}
            for alpha, e1, e2, den, table in forms:
                defect = _form_value(pair, table, den, target, composites)
                if not defect.nums:
                    result.compared += 1
                    continue
                lhs = _jacobi_left(pair, -alpha - 1, e1, e2, target,
                                   composites)
                result.compare(
                    x0_text[alpha] + x1_text[e1] + x2_text[e2] + word_text,
                    lhs, lhs - defect,
                )
    return _wrap_comparison(result, k, _window_str(window))


def _smallest_passing(attempt, top: int, k: int, window: str, what: str,
                      var: str) -> CheckReport:
    """The report of the first n in 0..top whose comparison ``attempt(n)``
    passes, detailed "<what> <var>=n", or else of the last attempt's
    failure."""
    for n in range(top + 1):
        result = attempt(n)
        if result.passed:
            return _wrap_comparison(result, k, window, detail=f"{what} {var}={n}")
    return _wrap_comparison(
        result, k, window, detail=f"no {what} up to {var}={top}"
    )


# the search bounds: locality's power N, weak associativity's shift n
MAX_VANISHING_POWER = 4
MAX_EXPONENT_SHIFT = 6


def check_locality(
    k: int, u: State, v: State, window: Window, *, domain_level=QQ(2),
) -> CheckReport:
    """Find the smallest N <= MAX_VANISHING_POWER with (x1-x2)^N times the
    supercommutator of the first-slot fields vanishing on the window; fail
    if none works.

    The commutator coefficients are materialized once on the full grid and
    each candidate N is tested on the sub-grid where all shifted lookups
    stay inside the window.
    """
    _require_pair(k, u, v)
    pair = _pair(_slot_field(k, u), _slot_field(k, v))
    step = pair.left.scale
    grid1 = _lattice_grid(window, "x1", k, step)
    grid2 = _lattice_grid(window, "x2", k, step)
    domain = _domain(pair.left, domain_level)
    x1_text = _axis_texts("x1", grid1, step)
    x2_text = _axis_texts("x2", grid2, step, " @ ")
    label = f"locality[k={k},slots=1,1,{_pair_label(u, v)}]"

    commutator = {}
    for iw, (_, target, _) in enumerate(domain):
        for e1, e2, value in _supercommutator_grid(pair, target, grid1, grid2):
            if value.nums:
                commutator[(iw, e1, e2)] = value

    def attempt(power: int) -> ComparisonResult:
        result = ComparisonResult(label)
        shift = step * power
        # the points whose shifted lookups stay inside the window
        sub1 = [f1 for f1 in grid1 if f1 - shift >= grid1.start]
        sub2 = [f2 for f2 in grid2 if f2 - shift >= grid2.start]
        signed = [(-1) ** i * binomial(power, i) for i in range(power + 1)]
        for iw, (_, _, word_text) in enumerate(domain):
            for f1 in sub1:
                for f2 in sub2:
                    terms = []
                    for i, coeff in enumerate(signed):
                        term = commutator.get(
                            (iw, f1 - shift + step * i, f2 - step * i))
                        if term is not None:
                            terms.append((term, coeff))
                    result.compare(
                        x1_text[f1] + x2_text[f2] + word_text,
                        combine(terms),
                        ZERO_STATE,
                    )
        return result

    return _smallest_passing(
        attempt, MAX_VANISHING_POWER, k, _window_str(window), "vanishing power", "N"
    )


# ---------------------------------------------------------------------------
# named checks: structure of the twisted fields
# ---------------------------------------------------------------------------


def check_limit_axiom(
    k: int, u: State, window: Window, *, domain_level=QQ(2)
) -> CheckReport:
    """Moving a vector one slot down equals the inverse-root substitution.

    For each slot power a, the field of the slot-(a+1) vector,
    with every coefficient at exponent e scaled by the (-k·e)-th power of
    the primitive root, must equal the field of the slot-a vector (indices
    mod k).  Applying the step k times returns every field to itself, so
    the cycle of k single-step comparisons covers the full orbit.

    Every slot field of u is its slot's scalar times one rational image,
    the same in every slot; the scalar is 0 where the slot's eta class is
    None.  So at (a, e) the comparison of a domain word holds exactly when
    its image is zero or slot a's scalar times eta^{-k e} equals slot
    (a-1)'s.  The check compares those two scalars once per (a, e) and
    counts one comparison per word; only where they differ does it read
    the images and build both states of each word, the witnesses.
    """
    require_even_order(k)
    _require_usable(u, "tensor factor")
    etas = eta_powers(k)
    step = 2 * k
    grid = _lattice_grid(window, "x", step, step)
    slots = [SlotField(k, u, a) for a in range(k)]
    domain = _domain(slots[0], domain_level)
    # the scalar of slot power a at the x^e coefficient, mode -e - step
    columns = []
    for slot in slots:
        classes = {e: slot.eta_class(-e - step) for e in grid}
        columns.append({e: ZERO if j is None else slot.scalars[j]
                        for e, j in classes.items()})
    x_text = _axis_texts("x", grid, step)
    result = ComparisonResult(f"limit-axiom[k={k},{_state_label(u)}]")
    for a in range(k):
        source = columns[a]
        dest = columns[(a - 1) % k]
        for e in grid:
            # eta^{-k e}, where -k e = -e/2 on the index is an integer
            scale = ONE if e % 2 else etas[(-e // 2) % k]
            if source[e] * scale == dest[e]:
                result.compared += len(domain)
                continue
            text = f"slot-power {a}: {x_text[e]}"
            for word, target, word_text in domain:
                image = slots[0].mode(-e - step, target)
                result.compare(
                    text + word_text,
                    image.scaled(source[e]).scaled(scale),
                    image.scaled(dest[e]),
                )
    return _wrap_comparison(result, k, _window_str(window))


def check_translation_derivative(
    k: int, u: State, window: Window, *, domain_level=QQ(2)
) -> CheckReport:
    """The first-slot field of the translated state is the x-derivative of
    the first-slot field — valid for every order, even or odd."""
    require_order(k)
    _require_usable(u, "field argument")
    step = 2 * k
    field = SlotField(k, u)
    column = _field_column(field)
    translated = virasoro(QQ(-1), u)
    if translated.is_zero():
        lhs = lambda e, word: (1, ())  # noqa: E731
    else:
        lhs = _field_column(SlotField(k, translated))

    def rhs(e, word):
        # d/dx: the x^e coefficient is e+1 times the x^{e+1} one, and e+1
        # is the index e + step over step
        if e == -step:
            return 1, ()
        den, nums = column(e + step, word)
        return den * step, [(out, (e + step) * num) for out, num in nums]

    lo, hi = _bounds(window, "x")
    cmp_window = Window({"x": (lo, hi - 1)})
    label = f"translation-derivative[k={k},{_state_label(u)}]"
    result = compare_fields(
        label, lhs, rhs, _lattice_grid(cmp_window, "x", step, step),
        [word for word, _, _ in _domain(field, domain_level)],
        field.sector.format_word, step,
    )
    return _wrap_comparison(result, k, _window_str(cmp_window))


def check_grading(
    k: int, u: State, window: Window, *, domain_level=QQ(2)
) -> CheckReport:
    """Twisted modes shift the level by k(weight - m - 1) on the level
    lattice of the field's sector (the integers on |R>) and keep the
    rotation grading on the (1/k)-lattice."""
    require_even_order(k)
    _require_usable(u, "field argument")
    field = SlotField(k, u)
    step = field.scale
    lattice = field.sector.level_den
    domain = _domain(field, domain_level)
    result = ComparisonResult(f"twisted-grading[k={k},{_state_label(u)}]")
    for e in _lattice_grid(window, "x", k, step):
        m = -e - step
        text = f"mode {QQ(m, step)} @ "
        for _, target, word_text in domain:
            image = field.mode_at(m, target)
            # the image of mode M lies at doubled level top - M, the top on
            # the word's doubled level
            expected = QQ(field.top(target) - m, 2)
            # a zero image has every grade; a nonzero one must be homogeneous
            # at the expected level, a nonnegative point of the lattice
            lhs = rhs = f"level {expected} on the nonnegative integers"
            if not image.is_zero():
                try:
                    actual = image.homogeneous_level()
                except ValueError:
                    lhs, rhs = image, "a homogeneous state"
                else:
                    if (actual != expected or actual < 0
                            or (actual * lattice).denominator != 1):
                        lhs = f"level {actual}"
            result.compare(text + word_text, lhs, rhs)
    return _wrap_comparison(result, k, _window_str(window))


def check_weak_associativity(
    k: int, u: State, v: State, window: Window, *, domain_level=QQ(2),
) -> CheckReport:
    """Weak associativity of the recovered parity-twisted fields.

    Searches for an exponent E = parity(u)/2 + n, n <= MAX_EXPONENT_SHIFT,
    such that
    (x0+x2)^E Y(u,x0+x2) Y(v,x2) w  (expanded with x2 second) equals
    (x2+x0)^E Y(Y(u,x0)v, x2) w    (expanded with x0 second)
    at every (x0, x2) exponent pair of the window, for every domain word w.
    Passing certifies the associativity half of the twisted-field axioms on
    the recovered fields.  The product side of a point is one
    `_product_form`, read by `_form_value` through the word's composites.
    """
    _require_pair(k, u, v)
    # recovered fields are over Q: their scalars are (ONE,); they read the
    # doubled index 2m, and so the x2 exponents are doubled
    pair = _pair(_ModeFamily(RecoveredField(k, u)),
                 _ModeFamily(RecoveredField(k, v)))
    parity_u = u.homogeneous_parity()
    grid0 = _lattice_grid(window, "x0", 1, 1)
    grid2 = _lattice_grid(window, "x2", 2, 2)
    domain = _domain(pair.left, domain_level)
    t_top = _iterate_top(u, v)
    i_max = t_top + max(grid0, default=-1) + 1
    x0_text = _axis_texts("x0", grid0, 1)
    x2_text = _axis_texts("x2", grid2, 2, " @ ")
    # the field of every iterate u_t v that an i-sum reaches, t = i - alpha - 1
    iterate_families = {}
    for t in range(-max(grid0, default=-1) - 1, t_top + 1):
        state = vertex_mode(u, t, v)
        iterate_families[t] = (None if state.is_zero()
                               else _ModeFamily(pair.right.field_of(state)))

    label = f"weak-associativity[recovered,k={k},{_pair_label(u, v)}]"

    def attempt(n: int) -> ComparisonResult:
        result = ComparisonResult(label)
        exponent = parity_u + 2 * n  # doubled
        binoms = [binomial(QQ(exponent, 2), i) for i in range(i_max + 1)]
        for _, target, word_text in domain:
            composites = {}
            for alpha in grid0:
                for beta in grid2:
                    # product side: C(alpha+i, i) = (-1)^i C(-alpha-1, i)
                    table = {}
                    den = _product_form(table, 1, pair, 0, -alpha - 1,
                                        exponent - 2 - 2 * alpha, -beta - 2,
                                        target)
                    lhs = _form_value(pair, table, den, target, composites)
                    # iterate side: i-sum with t = i - alpha - 1
                    rhs_terms = []
                    for i in range(0, t_top + alpha + 2):
                        family = iterate_families[i - alpha - 1]
                        if family is None:
                            continue
                        image = family.mode(exponent - 2 * i - beta - 2, target)
                        if image.nums:
                            rhs_terms.append((image, binoms[i]))
                    result.compare(
                        x0_text[alpha] + x2_text[beta] + word_text,
                        lhs,
                        combine(rhs_terms),
                    )
        return result

    return _smallest_passing(
        attempt, MAX_EXPONENT_SHIFT, k, _window_str(window), "exponent shift", "n"
    )


# ---------------------------------------------------------------------------
# named checks: round trips and characters
# ---------------------------------------------------------------------------


def check_u_round_trip(
    k: int, u: State, window: Window, *, domain_level=QQ(2)
) -> CheckReport:
    """Forward then inverse: the field recovered from the twisted module
    equals the native parity-twisted field, coefficient for coefficient."""
    require_even_order(k)
    _require_usable(u, "field argument")
    label = f"recovery-round-trip[k={k},{_state_label(u)}]"

    def native(e, word):
        # the reference: the parity-twisted field's own mode -e/2 - 1, with
        # no annihilation bound, so the recovered field's bound is checked
        image = sigma_vertex_mode(u, QQ(-e - 2, 2), State._of(1, ((word, 1),)))
        return image.den, image.nums

    # both fields on the doubled index 2m
    field = RecoveredField(k, u)
    result = compare_fields(
        label,
        _field_column(field),
        native,
        _lattice_grid(window, "x", 2, 2),
        [word for word, _, _ in _domain(field, domain_level)],
        field.sector.format_word,
        2,
    )
    return _wrap_comparison(result, k, _window_str(window))


def check_t_round_trip(
    k: int, u: State, window: Window, *, domain_level=QQ(2)
) -> CheckReport:
    """Inverse then forward: rebuilding a first-slot twisted mode from the
    recovered parity-twisted modes returns the original twisted mode."""
    require_even_order(k)
    _require_usable(u, "field argument")
    field = SlotField(k, u)
    step = field.scale
    recovered = {piece: RecoveredField(k, piece) for _, piece in field.pieces}
    domain = _domain(field, domain_level)
    result = ComparisonResult(f"rebuild-round-trip[k={k},{_state_label(u)}]")
    for e in _lattice_grid(window, "x", k, step):
        m = -e - step
        # a piece's doubled sigma index is the recovered field's index
        plan = field.plan(m)
        text = f"mode {QQ(m, step)} @ "
        for _, target, word_text in domain:
            total = combine(
                (recovered[piece].mode_at(index, target), 1)
                for piece, index in plan
            ).scaled(field.prefactor)
            result.compare(text + word_text, total, field.mode_at(m, target))
    return _wrap_comparison(result, k, _window_str(window))


def check_character_correspondence(k: int, cutoff: int) -> CheckReport:
    """Graded dimension of the twisted module against the rescaled
    parity-twisted spectrum, by two independent weight computations.

    Route one: the conversion formula (parity-twisted weight)/k plus the
    central constant, applied eigenvalue by eigenvalue.  Route two: the
    twisted weight operator (k times the first-slot weight mode of the
    conformal vector) diagonalized on the basis.  The graded dimensions
    must match the parity-twisted spectrum with exponents contracted by
    1/k, including the central-charge prefactors: the tensor-power
    prefactor -k·c/24 plus the conversion constant equals the contracted
    single-factor prefactor -c/(24k).
    """
    view = TwistedModuleView(k, cutoff)
    result = ComparisonResult(f"character-correspondence[k={k},cutoff={cutoff}]")
    operator = view.twisted_weight_operator()
    for word in view.basis():
        state = State({word: ONE})
        result.compare(
            f"weight operator @ {R.format_word(word)}",
            operator(state),
            state.scaled(view.expected_twisted_weight(word)),
        )
    c = CENTRAL_CHARGE
    result.compare(
        "central-charge prefactor",
        -QQ(k) * c / 24 + QQ(k * k - 1) * c / (24 * k),
        -c / (24 * k),
    )
    twisted = view.graded_dimension()
    sigma = R.spectrum(QQ(cutoff + 1))
    pieces = min(len(twisted.coeffs), len(sigma.coeffs))
    for n in range(pieces):
        result.compare(
            f"graded piece {n}",
            f"q^{twisted.weight(n)} dim {twisted.coeffs[n]}",
            f"q^{(sigma.weight(n) - c / 24) / k} dim {sigma.coeffs[n]}",
        )
    return _wrap_comparison(
        result, k, f"graded pieces 0..{cutoff}", detail=f"{pieces} graded pieces"
    )


# ---------------------------------------------------------------------------
# the aggregated suite
# ---------------------------------------------------------------------------


class SuiteConfig(namedtuple(
        "SuiteConfig", "k cutoff radius domain_level weight depth jacobi",
        defaults=(2, 4, QQ(3, 2), QQ(2), QQ(2), 4, True))):
    """Configuration of the aggregated verification suite.

    ``radius`` bounds every exponent window (negative radius is the empty
    window and is rejected); ``cutoff`` is the number of graded pieces of
    the character comparison (at most ``MAX_CUTOFF``); ``domain_level``
    bounds the twisted-module words the operator checks act on; ``weight``
    bounds the untwisted states fed to the coordinate-change checks (at
    most ``MAX_WEIGHT``);
    ``depth`` is the expansion depth of the conjugation check (at most
    ``MAX_CONJUGATION_DEPTH``); ``k`` is at most ``MAX_CONDUCTOR / 4``, as
    the slot fields live in Q(zeta_{4k}); the ceilings are checked before
    any check runs.  ``jacobi`` toggles the (more expensive) three-variable
    identity.
    """

    __slots__ = ()


def parse_rational(raw) -> QQ:
    """An exact rational from an integer or ``p/q`` spelling, e.g. ``-3/2``.

    The one rational parser of flags, config files and state words.  Decimal
    spellings such as ``0.5`` are refused, so every accepted value is written
    exactly; a zero denominator is refused too.  Only ASCII text without
    ``_`` is read, so the digit separators (``1_0``) and non-ASCII digits
    that ``int`` would accept are refused as well.  Exact rationals pass
    through.  Raises ValueError, never ZeroDivisionError.
    """
    if is_rational(raw):
        return QQ(raw)
    text = str(raw).strip()
    num, slash, den = text.partition("/")
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        num = int(num)
        den = int(den) if slash else 1
    except ValueError:
        raise ValueError(f"not an integer or p/q rational: {raw!r}") from None
    if den == 0:
        raise ValueError(f"zero denominator in {raw!r}")
    return QQ(num, den)


def parse_bool(raw) -> bool:
    """A flag value: 1/true/yes/on or 0/false/no/off, case-insensitive."""
    if isinstance(raw, bool):
        return raw
    value = str(raw).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Largest untwisted weight of the coordinate-change checks.  The round
# trip, conjugation and translation-generator checks run over every
# untwisted state up to it, and their cost doubles about every two units
# of weight: `verify --k 2 --jacobi off --radius 0 --domain-level 0` takes
# about 1 s at weight 10, 2 s at the ceiling and 11 s at weight 16 on a
# 2-core host.
MAX_WEIGHT = 12


def run_suite(config: SuiteConfig | None = None) -> list:
    """Run the aggregated suite and return its reports in a fixed order.

    Covers the delta-function identities, the coordinate-change layer
    (composition, conjugation, translation, round-trip defect), and — for
    even order — every structural check of the twisted module; for odd
    order the obstruction pair replaces the even-order checks.  Raises when
    any check compares zero coefficients: a vacuous pass is an error, not a
    pass.
    """
    cfg = config or SuiteConfig()
    k = cfg.k
    require_order(k)
    require_conductor(4 * k)
    radius = QQ(cfg.radius)
    if radius < 0:
        raise ValueError("no coefficients compared: the window is empty")
    # a bound below 0 selects no word, so some check would compare nothing
    if QQ(cfg.domain_level) < 0:
        raise ValueError(f"no coefficients compared: domain level "
                         f"{cfg.domain_level} selects no basis word")
    if QQ(cfg.weight) < 0:
        raise ValueError(f"no coefficients compared: weight {cfg.weight} "
                         "selects no basis state")
    require_conjugation_depth(cfg.depth)
    require_cutoff(cfg.cutoff)
    if QQ(cfg.weight) > MAX_WEIGHT:
        raise ValueError(
            f"weight {cfg.weight} exceeds the ceiling {MAX_WEIGHT}")
    reports = []

    def add(report: CheckReport):
        if report.compared == 0:
            raise ValueError(
                f"no coefficients compared in check '{report.name}'"
            )
        reports.append(report)

    cube3 = Window.cube(("x0", "x1", "x2"), -radius - 1, radius + 1)
    for kind in DeltaIdentity:
        shifts = (ZERO, QQ(1, 2), QQ(-1, 2)) if kind is DeltaIdentity.DF1 else (ZERO,)
        for shift in shifts:
            result = verify_delta_identity(kind, k, shift, cube3)
            add(_wrap_comparison(result, k, _window_str(cube3)))

    degree = max(2, int(rational_ceil(2 * radius)) + 2)
    add(
        _wrap_comparison(
            check_f_composition(k, degree), k, f"x-degree <= {degree}"
        )
    )

    weight = QQ(cfg.weight)
    round_trip = ComparisonResult(
        f"coordinate-change-round-trip[k={k},wt<={weight}]"
    )
    for word in NS.basis(weight):
        defect = round_trip_defect(k, State({word: ONE}))
        location = f"round trip @ {NS.format_word(word)}"
        round_trip.compare(location, defect.render(), "0")
    add(_wrap_comparison(round_trip, k, f"untwisted weight <= {weight}"))

    for state in (PSI, OMEGA):
        result = check_conjugation(
            k, state, cutoff=weight + QQ(1, 2), depth=cfg.depth
        )
        add(
            _wrap_comparison(
                result, k, f"untwisted weight <= {weight + QQ(1, 2)}"
            )
        )
    add(
        _wrap_comparison(
            check_L_minus1_identities(k, cutoff=weight),
            k,
            f"untwisted weight <= {weight}",
        )
    )

    window_x = Window({"x": (-radius - 1, radius + 1)})
    for state in (PSI, OMEGA):
        add(
            check_translation_derivative(
                k, state, window_x, domain_level=cfg.domain_level
            )
        )

    if k % 2:
        pair = check_odd_obstruction(
            k,
            PSI,
            PSI,
            Window.cube(("x1", "x2"), -radius, radius),
            domain_level=cfg.domain_level,
        )
        for report in pair:
            add(report)
        return reports

    cube2 = Window.cube(("x1", "x2"), -radius, radius)
    for left_state, right_state in (
        (PSI, PSI),
        (PSI, OMEGA),
        (OMEGA, OMEGA),
        (OMEGA, VACUUM),
    ):
        add(
            check_even_supercommutator(
                k, left_state, right_state, cube2, domain_level=cfg.domain_level
            )
        )
    for slots in ((1, 2), (2, 2)):
        add(
            check_cross_slot_commutator(
                k, PSI, PSI, slots[0], slots[1], cube2,
                domain_level=cfg.domain_level,
            )
        )
    add(check_locality(k, PSI, PSI, cube2, domain_level=cfg.domain_level))
    if cfg.jacobi:
        jacobi_window = Window.cube(("x0", "x1", "x2"), -radius, radius)
        for left_state, right_state in ((PSI, PSI), (OMEGA, OMEGA), (VACUUM, PSI)):
            add(
                check_twisted_jacobi(
                    k,
                    left_state,
                    right_state,
                    jacobi_window,
                    domain_level=cfg.domain_level,
                )
            )
    for state in (PSI, OMEGA):
        add(check_limit_axiom(k, state, window_x, domain_level=cfg.domain_level))
        add(check_grading(k, state, window_x, domain_level=cfg.domain_level))
    add(
        check_recovered_commutator(
            k, PSI, PSI, cube2, domain_level=cfg.domain_level
        )
    )
    add(
        check_weak_associativity(
            k,
            PSI,
            PSI,
            Window.cube(("x0", "x2"), -radius, radius),
            domain_level=cfg.domain_level,
        )
    )
    for state in (VACUUM, PSI, OMEGA):
        add(check_u_round_trip(k, state, window_x, domain_level=cfg.domain_level))
    add(check_t_round_trip(k, PSI, window_x, domain_level=cfg.domain_level))
    add(check_character_correspondence(k, cfg.cutoff))
    return reports


__all__ = [
    "MAX_WEIGHT",
    "CheckReport",
    "SuiteConfig",
    "parse_bool",
    "parse_rational",
    "check_character_correspondence",
    "check_cross_slot_commutator",
    "check_even_supercommutator",
    "check_grading",
    "check_limit_axiom",
    "check_locality",
    "check_odd_obstruction",
    "check_recovered_commutator",
    "check_t_round_trip",
    "check_translation_derivative",
    "check_twisted_jacobi",
    "check_u_round_trip",
    "check_weak_associativity",
    "run_suite",
    "suite_json",
    "suite_passed",
    "suite_table",
]
