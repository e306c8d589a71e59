"""Mathematical facts of a grfilt JSON payload, per subcommand.

Only facts are compared against the golden set, never the whole payload:
verdict prose, slope probes and coefficient encodings may change without
the mathematics changing, and such a change must not count as a failure.
"""


def _hilbert(p):
    facts = {"layer_dims": p["filtration"]["dims"],
             "hilbert": p["hilbert"]["values"]}
    if "quotient" in p:
        facts["quotient_dims"] = p["quotient"]["filtration"]["dims"]
    return facts


def _gr(p):
    return {"piece_dims": p["gr"]["piece_dims"], "symbols": p["symbols"]}


def _ranks(p):
    facts = {"actions_commute": p["actions_commute"]}
    for side, rep in sorted(p["sides"].items()):
        facts[side] = {
            "free_verdict": rep["free"]["verdict"],
            "free_rank": rep["free"]["rank"],
            "generator_degrees": rep["free"]["generator_degrees"],
            "uniform_verdict": rep["uniform"]["verdict"],
            "uniform_rank": rep["uniform"]["rank"]}
    return facts


def _certify(p):
    facts = {"verified": p["verified"], "consistent": p["consistent"]}
    for case in ("ascending", "weak_adic"):
        dossier = p[case]
        facts[case] = {"rows": dossier["certificate"].get("rows"),
                       "hilbert": dossier["hilbert"]["values"]}
    return facts


def _chain(p):
    return {"ideal_dims": p["ideal_dims"],
            "strictly_ascending": p["strictly_ascending"],
            "reverified": p["reverified"]}


def _dualize(p):
    return {"ok": p["ok"], "aborted_at": p["aborted_at"],
            "stage_results": p["stage_results"]}


def _quotient_iso(p):
    return {k: p[k] for k in ("consistent", "dim_a", "dim_b", "dim_joint",
                              "closed_degree")}


EXTRACTORS = {"hilbert": _hilbert, "gr": _gr, "ranks": _ranks,
              "certify": _certify, "chain": _chain, "dualize": _dualize,
              "quotient-iso": _quotient_iso}


def extract(command, payload):
    """The checked facts of one subcommand's JSON payload."""
    return EXTRACTORS[command](payload)


def differences(facts, golden, path=""):
    """Paths at which facts differ from golden, as readable strings."""
    if isinstance(facts, dict) and isinstance(golden, dict):
        out = []
        for key in sorted(set(facts) | set(golden)):
            if key not in facts or key not in golden:
                out.append(f"{path}{key}: missing on one side")
            else:
                out += differences(facts[key], golden[key], f"{path}{key}.")
        return out
    if facts != golden:
        return [f"{path.rstrip('.')}: {facts!r} != golden {golden!r}"]
    return []
