"""The query service of the query-serve workload: a working set built once,
then one small request at a time through liechar's public API.

Requests and responses are plain JSON-able dicts. A request names its
working-set item by index; every other input arrives in the request.
"""

from __future__ import annotations

from fractions import Fraction

# Called through their modules, so that spans installed on the module
# attributes after import are seen.
from liechar import dl_spectra, endoscopy, finite_lie, galois_tori, padic, root_datum
from liechar.exact_math import IntMatrix


def cyc_text(v):
    """The value in the CLI's cycN[...] text form (coefficients of the
    powers of zeta_N modulo Phi_N); rationals print as plain numbers."""
    red = list(v.reduced())
    if not any(red[1:]):
        return str(red[0]) if red else "0"
    return f"cyc{v.n}[" + ",".join(str(c) for c in red) + "]"


class WorkingSet:
    """Groups with their tori, nonsingular characters and strongly regular
    Lie points; root data in both isogenies; twisted tori. spec is
    workloads.working_set_spec()."""

    def __init__(self, spec):
        self.groups = []
        for kind, q in spec["groups"]:
            g = finite_lie.build_finite_group(kind, q)
            tori = []
            for torus in finite_lie.tori_and_regularity(g):
                thetas = dl_spectra.nonsingular_characters(torus)
                sr = [t for t in torus.lie_points() if finite_lie.is_strongly_regular(g, t)]
                tori.append((torus, thetas, sr))
            self.groups.append((g, tori))
        self.data = {
            (s, n, iso): root_datum.build_root_datum(s, n, iso)
            for s, n in spec["root_types"]
            for iso in ("sc", "ad")
        }
        self.tori = [galois_tori.TwistedTorus(len(m), IntMatrix(m)) for m in spec["lattices"]]

    def _cell(self, req):
        g, tori = self.groups[req["group"]]
        torus, thetas, sr = tori[req["torus"]]
        return g, torus, thetas[req["theta"]], sr

    def handle(self, req):
        kind = req["kind"]
        if kind == "springer_check":
            g, torus, theta, sr = self._cell(req)
            rep = dl_spectra.springer_check(g, torus, theta, sr[req["point"]], all_unipotent=True)
            return {"pass": rep["pass"], "cases": len(rep["cases"])}
        if kind == "dl_jordan_reduction_check":
            g, torus, theta, _ = self._cell(req)
            gamma = g.elements[req["element"]]
            return {"pass": dl_spectra.dl_jordan_reduction_check(g, torus, theta, gamma)["pass"]}
        if kind == "dl_value":
            g, torus, theta, _ = self._cell(req)
            rho = dl_spectra.dl_character(torus, theta).genuine()
            gamma = g.elements[req["element"]]
            return {
                "q": g.q,
                "torus": torus.tag,
                "degree": cyc_text(rho.degree_value),
                "value": cyc_text(rho.value_at(gamma)),
            }
        if kind == "endoscopic_from_kappa":
            datum = self.data[(req["series"], req["rank"], req["isogeny"])]
            kappa = tuple(Fraction(x) for x in req["kappa"])
            return endoscopy.endoscopic_from_kappa(datum, kappa).serialize()
        if kind == "topological_jordan":
            m = padic.TruncatedMatrix(len(req["matrix"]), req["p"], req["k"], req["matrix"])
            delta, u = padic.topological_jordan(m)
            return {"delta": [list(r) for r in delta.rows], "u": [list(r) for r in u.rows]}
        if kind == "hilbert":
            a, b = Fraction(req["a"]), Fraction(req["b"])
            places = sorted(padic.relevant_places(a, b), key=str)
            return {"symbols": {str(v): padic.hilbert_symbol(a, b, v) for v in places}}
        if kind == "tn_pairing":
            data = galois_tori.component_group_pi0(self.tori[req["lattice"]])
            val = galois_tori.tn_pairing(data, tuple(req["inv"]), tuple(req["kappa"]))
            return {"factors": list(data.invariant_factors), "value": cyc_text(val)}
        raise ValueError(f"unknown request kind {kind!r}")
