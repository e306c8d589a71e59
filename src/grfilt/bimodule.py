"""Rank certificates for one-sided k[t]-actions on matrix carriers.

A ModuleAction is a subspace window together with a ring element acting
by left or right multiplication; the subring k[t] it generates is the
coefficient ring, and the ambient is the window's own.  The corner ideal
is a bimodule as two such actions, left and right, of one actor on one
carrier.  Everything is decided on the computed degree window and
reported as an explicit certificate, with three honest outcomes: free of
a definite rank, not free (with a relation witness), or inconclusive at
the probed depth.  A rank report keeps, off its payload, the generators
as kernel rows and the scan's tagged span of their orbits, from which
grfilt.dualizing reads each side's free C-structure; a uniform-rank
report keeps its family as kernel rows too.

The naive growth slope dim M_{<=n} / dim k[t]_{<=n} misrepresents twisted
actions: an actor can raise carrier degree by more than one step, in which
case the slope undercounts the rank by exactly that step.  slope_table is
therefore exposed as a probe with the correction factor spelled out, never
as the rank itself.
"""

from bisect import bisect_right
from functools import cached_property

from .linalg import SpanTracker, combine_rows
from .linspace import (degree_cuts, restrict_degree, sum_spaces, zero_space,
                       DegreeOverflowError)
from .filtration import WindowExceeded, two_sided_closure
from .record import Record
from .workbench import make


class ModuleAction(Record):
    """A k[t]-action on a carrier; the actor t is a matrix, and apply and
    power_orbit take and give kernel rows.  The ambient is read through
    the carrier, so replace(ambient=...) raises TypeError."""
    fields = ("name", "carrier", "actor", "side")

    ambient = property(lambda self: self.carrier.ambient)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    @cached_property
    def _actor_row(self):
        return self.ambient.encode_sparse(self.actor)

    def apply(self, row):
        if self.side == "left":
            return self.ambient.mul(self._actor_row, row)
        return self.ambient.mul(row, self._actor_row)

    def power_orbit(self, row, max_power=None):
        """[row, t*row, t^2*row, ...] while products stay representable.

        Degree-raising actors stop at the degree cap on their own.  The
        default bound of ambient dim + 1 applications covers the rest:
        past that many vectors the cumulative span is stable under the
        actor, and a zero or a linear collision, if one ever occurs,
        has already occurred.
        """
        if max_power is None:
            max_power = self.ambient.dim + 1
        out = [row]
        for _ in range(max_power):
            try:
                out.append(self.apply(out[-1]))
            except DegreeOverflowError:
                break
            if not out[-1]:
                break
        return out

    def effective_step(self):
        """Observed degree increase of one application on the carrier."""
        amb = self.ambient
        best = 0
        for b in self.carrier.basis_rows():
            try:
                img = self.apply(b)
            except DegreeOverflowError:
                continue
            if img:
                best = max(best, amb.degree(img) - amb.degree(b))
        return best


class RankReport(Record):
    """generators holds kernel rows and span the SpanTracker of the scan,
    whose tag (i, k) labels t^k applied to generator i.  A span equals
    only itself, so two scans' reports compare by their to_json()."""
    fields = ("name", "side", "verdict", "rank", "depth", "effective_step",
              "generator_degrees", "generators", "relation",
              "spanned_through", "span")
    hidden = ("generators", "span")


def free_rank(action, depth):
    """Greedy degreewise generators plus an exact relation scan.

    Every carrier basis vector of degree <= depth is either absorbed into
    the k[t]-span of the generators found so far or adopted as a new
    generator; each adopted generator contributes its full power orbit to
    the span, and any linear collision among orbit vectors is a genuine
    k[t]-relation (products are computed exactly, so nothing spurious).

    Verdicts: "not free" with the relation; "free" when none appeared and
    the window is quiet (_quiet): generator discovery stopped more than
    effective_step degrees below depth, and a nonzero carrier gave the
    scan a generator; otherwise "inconclusive".  So a window with no
    carrier row of degree <= depth certifies no rank, not rank 0.
    """
    amb = action.ambient
    tracker = SpanTracker(amb.field, amb.dim)
    gens = []
    relation = None
    step = action.effective_step()
    for b in _scan_basis(action, depth):
        gi = len(gens)
        if not tracker.add(b, (gi, 0)):
            continue
        gens.append(b)
        for k, v in enumerate(action.power_orbit(b)[1:], 1):
            if not v:
                relation = relation or {
                    "kind": "nilpotent", "generator": gi, "power": k,
                    "combo": []}
                break
            if not tracker.add(v, (gi, k)):
                combo = tracker.express(v)
                relation = relation or {
                    "kind": "collision", "generator": gi, "power": k,
                    "combo": sorted(
                        [[j, l, amb.field.text(c)]
                         for (j, l), c in combo.items()])}
                break
    if relation is not None:
        verdict, rank = "not free", None
    elif _quiet(action, gens, depth, step):
        verdict, rank = "free", len(gens)
    else:
        verdict, rank = "inconclusive", None
    return RankReport(action.name, action.side, verdict, rank, depth,
                      step, tuple(map(amb.degree, gens)), tuple(gens),
                      relation, depth, tracker)


def _quiet(action, gens, depth, step):
    """free_rank's rule for "free" once no relation appeared: the last
    generator lies more than step degrees below depth, and there is one
    unless the carrier is zero."""
    if not gens:
        return not action.carrier.dim
    return action.ambient.degree(gens[-1]) <= depth - max(step, 1)


def _scan_basis(action, depth):
    """The carrier's basis rows of degree <= depth, by degree (stable)."""
    amb = action.ambient
    return sorted((b for b in action.carrier.basis_rows()
                   if amb.degree(b) <= depth), key=amb.degree)


def verify_rank_certificate(action, report):
    """Recheck a rank report's claims from its stored data.  A report
    that breaks a rule free_rank follows is a false claim, not an error:
    a verdict free_rank never writes; a rank other than free_rank's (the
    number of generators, or None when not free); generators that are
    not carrier rows of degree <= depth in degree order, or degrees,
    spanned_through or effective_step other than the scan's; "free"
    outside a quiet window (_quiet, so never without a generator on a
    nonzero carrier); "not free" with a generator, up to the relation's
    own, inside the earlier generators' orbits, or with a relation of
    the wrong shape.  "inconclusive" raises WindowExceeded."""
    amb = action.ambient
    if report.verdict == "inconclusive":
        raise WindowExceeded("an inconclusive report claims nothing")
    if (report.verdict, report.rank) not in (
            ("free", len(report.generators)), ("not free", None)):
        return False
    gens = report.generators
    degrees = tuple(map(amb.degree, gens))
    if not (degrees == report.generator_degrees
            and list(degrees) == sorted(degrees)
            and all(d <= report.depth for d in degrees)
            and not any(map(action.carrier.residual, gens))
            and report.spanned_through == report.depth
            and report.effective_step == action.effective_step()):
        return False
    if report.verdict == "not free":
        rel = _read_relation(report.relation, amb.field, len(gens))
        if rel is None:
            return False
        kind, gi, k, combo = rel
        # free_rank adopts a row only outside the orbits before it
        earlier = zero_space(amb)
        for g in gens[:gi + 1]:
            if not earlier.residual(g):
                return False
            earlier = earlier.extend(action.power_orbit(g))
        orbit = action.power_orbit(gens[gi], max_power=k)
        if len(orbit) <= k:
            return False
        if kind == "nilpotent":
            return not orbit[k]
        if not orbit[k]:
            return False
        coeffs, rows = {0: amb.field.one}, [orbit[k]]
        for j, l, c in combo:
            term = action.power_orbit(gens[j], max_power=l)
            # a power past the orbit's end names no orbit vector
            if len(term) <= l:
                return False
            if c:
                coeffs[len(rows)] = amb.field.of(-c)
                rows.append(term[l])
        return not combine_rows(coeffs, rows, amb.field.p)
    if not _quiet(action, gens, report.depth, report.effective_step):
        return False
    # the orbits are independent exactly when their span has full dim
    rows = [v for g in gens for v in action.power_orbit(g)]
    orbits = zero_space(amb).extend(rows)
    return orbits.dim == len(rows) and orbits.contains(
        restrict_degree(action.carrier, report.spanned_through))


def _read_relation(rel, field, ngens):
    """(kind, generator, power, [(j, l, c)]) from a relation whose keys,
    types and terms have the shape free_rank writes (coefficients spelled
    by field.text) and whose terms come before (generator, power) in the
    scan's order; None otherwise."""
    def index(v):
        return type(v) is int and v >= 0
    if not isinstance(rel, dict) or rel.get("kind") not in (
            "nilpotent", "collision"):
        return None
    gi, k, combo = rel.get("generator"), rel.get("power"), rel.get("combo")
    if not (index(gi) and gi < ngens and index(k)
            and isinstance(combo, (list, tuple)) and all(
                isinstance(t, (list, tuple)) and len(t) == 3
                for t in combo)):
        return None
    try:
        terms = [(j, l, field.parse(cs)) for j, l, cs in combo]
    except (AttributeError, TypeError, ValueError, ZeroDivisionError):
        return None
    if not all(index(j) and index(l) and (j < gi or (j == gi and l < k))
               for j, l, _ in terms):
        return None
    return rel["kind"], gi, k, terms


def slope_table(action, depth):
    """Probe table: window dimension against k[t]-budget, with the twist
    correction made explicit.  Not a rank; see free_rank / goldie_rank.
    A depth below 1 has no rows and raises WindowExceeded."""
    if depth < 1:
        raise WindowExceeded(f"slope table needs depth >= 1, got {depth}")
    step = max(action.effective_step(), 1)
    degrees = list(map(action.ambient.degree, degree_cuts(action.carrier)))
    rows = []
    for n in range(1, depth + 1):
        dim_n = bisect_right(degrees, n)
        raw = dim_n / (n + 1)
        rows.append({"n": n, "carrier_dim": dim_n,
                     "raw_slope": round(raw, 4),
                     "twist_corrected": round(raw * step, 4)})
    return {"effective_step": step, "rows": rows,
            "note": "probe only; raw slope counts carrier degrees against "
                    "k[t] degrees one for one and undercounts twisted "
                    "actions by the step factor"}


class GoldieReport(Record):
    fields = ("name", "side", "verdict", "rank", "family_degrees", "family",
              "essential_ok", "budget_ok", "regular_ok", "depth", "slope")
    hidden = ("family",)


_KERNEL_VERDICT = "not certified: actor has a kernel on the window"


def _has_kernel(action):
    """Whether the actor kills some carrier element of the window where
    its products fit the degree cap: of degree at most the cap less the
    actor's degree (at least 1).  Series ambients are refused:
    truncation makes every element nilpotent under the action, so no
    uniform-rank statement about the untruncated module can come out."""
    amb = action.ambient
    if amb.series:
        raise ValueError(
            "a uniform-rank certificate needs polynomial mode; in a series "
            "ambient every element is torsion by truncation")
    domain = restrict_degree(action.carrier,
                             amb.degcap - max(action.actor.degree(), 1))
    return bool(domain.kernel(map(action.apply, domain.basis_rows())).dim)


def goldie_rank(action, depth):
    """Uniform rank certificate: one pass over the window's basis keeps
    each orbit whose sum with the family span is direct.  Each other
    orbit meets that span, which only grows, so the family is essential
    by construction (essential_ok, like regular_ok, is fixed by the
    branch taken).  Needs the actor to act regularly (injectively) on
    the window; a kernel element is reported instead of a rank.  Series
    ambients are refused (see _has_kernel)."""
    amb = action.ambient
    if _has_kernel(action):
        return GoldieReport(action.name, action.side, _KERNEL_VERDICT,
                            None, (), (), False, False, False,
                            depth, slope_table(action, depth))
    family = []
    total = zero_space(amb)
    budget_ok = True
    for b in _scan_basis(action, depth):
        orbit = action.power_orbit(b)
        grown = _direct(total, orbit)
        if grown is not None:
            family.append(b)
            total = grown
            if len(orbit) < 2:
                budget_ok = False
    # a nonzero carrier with no row of degree <= depth certifies no rank
    verdict = ("certified" if budget_ok and (family or not action.carrier.dim)
               else "inconclusive")
    return GoldieReport(action.name, action.side, verdict,
                        len(family) if verdict == "certified" else None,
                        tuple(map(amb.degree, family)), tuple(family),
                        True, budget_ok, True, depth,
                        slope_table(action, depth))


def _direct(total, orbit):
    """total plus the span of orbit when the two meet trivially, which is
    exactly when the sum is direct: when the dimensions add up; None
    otherwise."""
    sb = zero_space(total.ambient).extend(orbit)
    grown = sum_spaces(total, sb)
    return grown if grown.dim == total.dim + sb.dim else None


def verify_goldie_certificate(action, report):
    """Recheck a uniform-rank report.  The kernel verdict holds when the
    recomputed kernel is nonzero; "certified" needs it zero and a stored
    family of carrier elements of degree <= depth, with their degrees,
    as many as the rank and none only on a zero carrier, with direct and
    essential orbits.  Any other verdict, or a rank
    beside the kernel verdict, is False; "inconclusive" claims nothing
    to check and raises WindowExceeded."""
    if report.verdict == "inconclusive":
        raise WindowExceeded("an inconclusive report claims nothing")
    if report.verdict not in ("certified", _KERNEL_VERDICT):
        return False
    if _has_kernel(action):
        return report.verdict == _KERNEL_VERDICT and report.rank is None
    if report.verdict != "certified":
        return False
    amb = action.ambient
    family = report.family
    if (report.rank != len(family)
            or (not family and action.carrier.dim)
            or report.family_degrees != tuple(map(amb.degree, family))
            or not all(amb.degree(m) <= report.depth
                       and not action.carrier.residual(m) for m in family)):
        return False
    total = zero_space(amb)
    for m in family:
        total = _direct(total, action.power_orbit(m))
        if total is None:
            return False
    return all(_direct(total, action.power_orbit(b)) is None
               for b in _scan_basis(action, report.depth))


def corner_ideal(name, depth, field):
    """The corner ideal of R_2x2, the two-sided ideal beta generates, on
    the window that holds depth-n layers, as a bimodule: alpha acting on
    it from the left and from the right.  Returns the ring and the
    actions {"left": ..., "right": ...} (named name:side) on the one
    carrier; the ideal is exact through ring.pres.closed_degree."""
    ring = make("R_2x2", field=field, depth=depth)
    carrier = two_sided_closure(ring.pres, [ring.el("beta")])
    alpha = ring.el("alpha")
    actions = {side: ModuleAction(f"{name}:{side}", carrier, alpha, side)
               for side in ("left", "right")}
    return ring, actions


def bimodule_ranks(actions, depth):
    """Free-rank reports for both actions, plus the commuting check
    (t_left (m) t_right) computed both ways on the carrier basis."""
    left, right = actions["left"], actions["right"]
    commute_ok = True
    for b in left.carrier.basis_rows():
        try:
            one_way = right.apply(left.apply(b))
            other = left.apply(right.apply(b))
        except DegreeOverflowError:
            continue
        if one_way != other:
            commute_ok = False
            break
    return {"left": free_rank(left, depth),
            "right": free_rank(right, depth),
            "actions_commute": commute_ok}
