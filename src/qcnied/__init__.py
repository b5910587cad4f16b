"""Quasi-cyclic code-equivalence toolkit.

Structured parity-check matrices over small binary extension fields,
admission conditions on their circulant blocks, a Niederreiter-style
key wrap around them, exact automorphism (stabilizer) computation, and
distinguishability bounds for the induced hidden-subgroup instances.

The public names below live in the submodules and load on first use
(PEP 562), so ``import qcnied.cli`` runs only the layers a command needs.
"""

import importlib

# home submodule -> the public names it defines
_EXPORTS = {
    "circulant": "BlockCirculant CirculantBlock Perm act",
    "conditions": "ConditionReport Verdict check_i check_ii check_iii check_iv "
                  "check_v check_variant good_shape sample_compliant "
                  "sample_variant validate_all",
    "distinguish": "BoundReport EnvelopeStats class_size_sn dk_bound "
                   "dk_bound_envelope log_gl_order logsumexp min_class_size "
                   "s0_exact s1_term worst_case_h",
    "autgroup": "AutGroup Lemma1Report PairStab classify minimal_degree "
                "stab_block stab_full verify_lemma1",
    "field": "FieldCtx default_modulus is_irreducible",
    "niederreiter": "PrivateKey PublicKey decrypt encrypt keygen",
}
# public name -> home submodule; `errors`, `io` and `report` are exported as themselves
_HOME = {name: home for home, names in _EXPORTS.items() for name in names.split()}
_HOME.update(errors="errors", io="io", report="report")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
