"""A kernel for a small dependent type theory with explicit substitutions,
plus executable syntactic translations over it."""

from .syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Level, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, Tt,
    TmExpr, TmSub, TrueLit, TyExpr, TySub, Univ, Var0, Wk, apply1, arrow,
    lift, v, wk,
)
from .typecheck import (
    IllFormedEntry, ProjectionOfEmpty, Translated, TranslationIllTyped,
    TypeCheckError, VarInEmptyContext, check_ctx, check_sub, check_tm,
    infer_ty, synth_sub, synth_tm,
)
from .conversion import conv_sub, conv_tm, conv_ty, normalize_tm, normalize_ty
from .values import InternalStuck, KernelError
from .canonicity import CanonVerdict, NonCanonical, canonicity_verdict
from .generate import GenConfig, GenExhausted, InstanceGen
from .injectivity import CtxIso, IsoFailure, build_ctx_iso, check_embedding, injectivity_probe
from .parametricity import param_entity
from .termify import termify_entity, verify_termified_equation

__all__ = [
    "App", "Bool", "Code", "Comp", "Ctx", "EMPTY", "El", "Eps", "Ext",
    "FalseLit", "Fst", "IdSub", "IdTy", "If", "J", "Lam", "Level", "Pair",
    "Pi", "Refl", "Sigma", "Snd", "SubExpr", "Top", "Tt", "TmExpr", "TmSub",
    "TrueLit", "TyExpr", "TySub", "Univ", "Var0", "Wk", "apply1", "arrow",
    "lift", "v", "wk",
    "IllFormedEntry", "ProjectionOfEmpty", "Translated",
    "TranslationIllTyped", "TypeCheckError", "VarInEmptyContext",
    "check_ctx", "check_sub", "check_tm", "infer_ty", "synth_sub", "synth_tm",
    "conv_sub", "conv_tm", "conv_ty", "normalize_tm", "normalize_ty",
    "InternalStuck", "KernelError",
    "CanonVerdict", "NonCanonical", "canonicity_verdict",
    "GenConfig", "GenExhausted", "InstanceGen",
    "CtxIso", "IsoFailure", "build_ctx_iso", "check_embedding",
    "injectivity_probe",
    "param_entity",
    "termify_entity", "verify_termified_equation",
]
