"""Exact rewriting of bond-term products into shorter products.

Three families of operator identities drive the compression. Writing a
shifted bond factor as (M + s*O) with O^2 = I:

  merge      (M1 + s*O)(M2 + s*O) = (M1 + M2) * ((M1*M2 + 1)/(M1 + M2) + s*O)
  commute    factors of equal flavor always commute; factors of different
             flavor commute iff their bonds share 0 or 2 sites
  sandwich   (1 - ZZ_b)(Mx - XX_c)(1 - ZZ_b) = 2*Mx * (1 - ZZ_b)
             when bond c overlaps bond b on exactly one site and the ZZ
             shift is exactly 1 (a general ZZ shift leaves a two-term
             remainder, so the rule is gated on shift == 1)

contract() folds a term list to a fixpoint with a greedy right-to-left
scan: each incoming term walks left past commuting neighbors looking for
a merge partner, tolerating exactly one non-commuting term in between in
case that term is the filling of a sandwich. The scalar factors produced
by every rewrite accumulate in the prefactor, so

    prefactor * product(contracted terms) == product(original terms)

holds exactly as an operator identity. These are the paper's exact
identities, checked by the acceptance suite and `contract-check`; the
sampler does not contract (it evaluates weights from propagated states),
and sampled configurations always keep their uncontracted strings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import BondTerm, PauliFlavor

__all__ = [
    "ContractedString",
    "commute_adjacent",
    "merge_same_bond",
    "sandwich_eliminate",
    "contract",
]

_SHIFT_ONE_TOL = 1e-12


@dataclass(slots=True)
class ContractedString:
    """Scalar prefactor times a reduced term list, equal to the original product."""

    prefactor: float
    terms: list[BondTerm]


def _bond_set(term: BondTerm, n_sites: int) -> frozenset[int]:
    return frozenset(term.sites(n_sites))


def _same_family(a: BondTerm, b: BondTerm, n_sites: int) -> bool:
    """Same bond, flavor, and sign: mergeable into a single factor."""
    return (
        a.flavor is b.flavor
        and a.sign == b.sign
        and _bond_set(a, n_sites) == _bond_set(b, n_sites)
    )


def commute_adjacent(a: BondTerm, b: BondTerm, n_sites: int) -> bool:
    """Whether two shifted bond factors commute as operators.

    Equal flavors always commute (pure-Z or pure-X products). Different
    flavors anticommute on exactly one shared site and commute otherwise,
    and the shifts do not change that.
    """
    if a.flavor is b.flavor:
        return True
    shared = len(_bond_set(a, n_sites) & _bond_set(b, n_sites))
    return shared != 1


def merge_same_bond(a: BondTerm, b: BondTerm) -> tuple[float, BondTerm]:
    """Fuse two same-bond same-flavor same-sign factors into one.

    (M1 + s*O)(M2 + s*O) = (M1*M2 + 1) + (M1 + M2)*s*O since O^2 = I, so
    the merged factor carries shift (M1*M2 + 1)/(M1 + M2) and coupling 1,
    with couplings and (M1 + M2) pulled out front. Holds for either
    flavor. Shift positivity guarantees M1 + M2 > 0.
    """
    if a.flavor is not b.flavor or a.sign != b.sign:
        raise ValueError("merge requires matching flavor and sign")
    m1, m2 = a.shift, b.shift
    factor = a.coupling * b.coupling * (m1 + m2)
    merged = BondTerm(a.site, a.flavor, 1.0, (m1 * m2 + 1.0) / (m1 + m2), a.sign)
    return factor, merged


def _is_unit_shift_zz(term: BondTerm) -> bool:
    return term.flavor is PauliFlavor.ZZ and abs(term.shift - 1.0) <= _SHIFT_ONE_TOL


def sandwich_eliminate(left: BondTerm, mid: BondTerm, right: BondTerm,
                       n_sites: int) -> tuple[float, BondTerm] | None:
    """Collapse (ZZ bread)(XX filling)(ZZ bread) into the bread alone.

    Applies only when both bread terms act on the same bond with shift
    exactly 1 and matching sign, and the XX filling overlaps the bread
    bond on a single site. Returns (factor, survivor) with factor
    2*shift_mid*coupling_mid*coupling_right and survivor = left, or None
    when any precondition fails (in particular for bread shifts != 1,
    where the product does not reduce to a single factor).
    """
    if not (_is_unit_shift_zz(left) and _is_unit_shift_zz(right)):
        return None
    if left.sign != right.sign:
        return None
    if _bond_set(left, n_sites) != _bond_set(right, n_sites):
        return None
    if mid.flavor is not PauliFlavor.XX:
        return None
    if len(_bond_set(mid, n_sites) & _bond_set(left, n_sites)) != 1:
        return None
    factor = 2.0 * mid.shift * mid.coupling * right.coupling
    return factor, left


def _push(out: list[BondTerm], t: BondTerm, n_sites: int) -> float:
    """Append t to the reduced list, rewriting when a rule fires.

    Walks left from the end over terms commuting with t. A same-family
    term found with no barrier in between merges with t; found past
    exactly one non-commuting barrier it is a sandwich candidate. Two
    barriers stop the walk. Returns the scalar factor produced.
    """
    mid_pos = -1
    j = len(out) - 1
    while j >= 0:
        r = out[j]
        if _same_family(r, t, n_sites):
            if mid_pos < 0:
                factor, merged = merge_same_bond(r, t)
                del out[j]
                # merged shares t's commutation profile, so rescanning from
                # the end is safe and lets contractions cascade
                return factor * _push(out, merged, n_sites)
            hit = sandwich_eliminate(r, out[mid_pos], t, n_sites)
            if hit is not None:
                factor, survivor = hit
                del out[j]
                out[mid_pos - 1] = survivor
                return factor
            break
        if commute_adjacent(r, t, n_sites):
            j -= 1
            continue
        if mid_pos >= 0:
            break
        mid_pos = j
        j -= 1
    out.append(t)
    return 1.0


def contract(string: list[BondTerm], n_sites: int) -> ContractedString:
    """Compress a term product to a fixpoint of the rewrite rules.

    Every pass rebuilds the list through _push; a pass that fires no rule
    reproduces the list unchanged, which is the fixpoint. The result
    never exceeds the original length, and the sampled configuration is
    never mutated (callers pass a copy or treat the result as read-only).
    """
    terms = list(string)
    prefactor = 1.0
    while True:
        out: list[BondTerm] = []
        for t in terms:
            prefactor *= _push(out, t, n_sites)
        if len(out) == len(terms):
            return ContractedString(prefactor, out)
        terms = out
