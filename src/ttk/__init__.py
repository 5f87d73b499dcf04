"""A kernel for a small dependent type theory with explicit substitutions,
plus executable syntactic translations over it.  ``import ttk`` loads
none of its modules: an export, or a module such as ``ttk.surface``, is
imported when it is first asked for (PEP 562)."""

import importlib

# Each export, once, under the module that defines it.
_EXPORTS = {
    "syntax": """App Bool Code Comp Ctx EMPTY El Eps Ext FalseLit Fst IdSub
        IdTy If J Lam Level Pair Pi Refl Sigma Snd SubExpr Top Tt TmExpr
        TmSub TrueLit TyExpr TySub Univ Var0 Wk apply1 arrow lift v wk""",
    "typecheck": """IllFormedEntry ProjectionOfEmpty Translated
        TranslationIllTyped TypeCheckError VarInEmptyContext check_ctx
        check_sub check_tm infer_ty synth_sub synth_tm""",
    "conversion": "conv_sub conv_tm conv_ty normalize_tm normalize_ty",
    "values": "InternalStuck KernelError",
    "canonicity": "NonCanonical canonicity_verdict",
    "generate": "GenConfig GenExhausted InstanceGen",
    "equations": "injectivity_probe",
    "injectivity": "CtxIso IsoFailure build_ctx_iso check_embedding",
    "parametricity": "param_entity",
    "termify": "termify_entity verify_termified_equation",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def __getattr__(name: str):
    module = next((defining for defining, names in _EXPORTS.items()
                   if name in names.split()), name)
    try:
        found = importlib.import_module(f".{module}", __name__)
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":
            raise
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value = found if module == name else getattr(found, name)
    return value
