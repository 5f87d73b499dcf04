"""The defining equations of the theory as testable schemas.

Each schema records how to draw one well-typed instance of its quantified
data and how to assemble the two sides plus the classifier they share.
Conversion acceptance of every instance of every schema is the correctness
contract for the normalizer.

The registry covers the full equation inventory of the theory: category
laws, the functorial action of substitution on types and terms, the
terminal-context and extension laws, and beta/eta/substitution laws for
each type former.  ``tt_sub`` is stated even though the unit eta law
subsumes it; downstream suites run all schemas, so any canonical sublist
is covered as well.

A schema draws inhabited what it goes on to inhabit: a type it draws a
term of, and a context it draws a substitution into
(``generate.InstanceGen.draw_inhabited_ty`` and ``draw_inhabited_ctx``).
Everything else is drawn free.  So a draw runs out only of fuel, never at
a goal with no way in.  ``injectivity_probe`` holds ``check_instance``
against the closed-term translation of an instance.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Union

from .syntax import (
    App, Bool, Code, Comp, Ctx, EMPTY, El, Eps, Ext, FalseLit, Fst, IdSub,
    IdTy, If, J, Lam, Pair, Pi, Refl, Sigma, Snd, SubExpr, Top, TrueLit, Tt,
    TmExpr, TmSub, TyExpr, TySub, Univ, Var0, Wk, j_binder, lift,
)
from .conversion import conv_sub, conv_tm, conv_ty
from .generate import InstanceGen
from .termify import verify_termified_equation


class EqInstance(NamedTuple):
    """Two sides in ``ctx`` at a shared ``classifier``: ``None`` for two
    types, the codomain for two substitutions, the type for two terms."""
    ctx: Ctx
    classifier: Union[TyExpr, Ctx, None]
    lhs: Union[TmExpr, TyExpr, SubExpr]
    rhs: Union[TmExpr, TyExpr, SubExpr]


def check_instance(inst: EqInstance) -> bool:
    if inst.classifier is None:
        return conv_ty(inst.ctx, inst.lhs, inst.rhs)
    if isinstance(inst.classifier, Ctx):
        return conv_sub(inst.ctx, inst.classifier, inst.lhs, inst.rhs)
    return conv_tm(inst.ctx, inst.classifier, inst.lhs, inst.rhs)


def injectivity_probe(inst: EqInstance) -> bool:
    """Whether ``inst`` is a counterexample to injectivity: its sides are
    equal after the closed-term translation but not before (a bug)."""
    return verify_termified_equation(inst) and not check_instance(inst)


Builder = Callable[[InstanceGen], EqInstance]
SCHEMAS: dict[str, Builder] = {}


def schema(name: str) -> Callable[[Builder], Builder]:
    def register(fn: Builder) -> Builder:
        SCHEMAS[name] = fn
        return fn
    return register


def build_instance(name: str, gen: InstanceGen) -> EqInstance:
    return SCHEMAS[name](gen)


# -- shared draws ------------------------------------------------------------

def _sub_between(g: InstanceGen,
                 dom: Ctx | None = None) -> tuple[Ctx, Ctx, SubExpr]:
    """A domain, drawn free unless given, an inhabited codomain and a
    substitution between them."""
    dom = g.draw_ctx() if dom is None else dom
    cod = g.draw_inhabited_ctx()
    return dom, cod, g.draw_sub(dom, cod)


def _ty_and_sub(g: InstanceGen) -> tuple[Ctx, Ctx, SubExpr, TyExpr]:
    dom, cod, sub = _sub_between(g)
    return dom, cod, sub, g.draw_inhabited_ty(cod)


def _binder_data(g: InstanceGen, draw_dom) -> tuple[Ctx, TyExpr, TyExpr]:
    """A context, a domain drawn by ``draw_dom`` and an inhabited
    codomain over it."""
    ctx = g.draw_ctx()
    dom = draw_dom(ctx)
    cod = g.draw_inhabited_ty(ctx.extend(dom))
    return ctx, dom, cod


def _at_point(dom: TyExpr, eq_entry: TyExpr, point: TmExpr, eq: TmExpr) -> SubExpr:
    return Ext(Ext(IdSub(), dom, point), eq_entry, eq)


# -- category laws -----------------------------------------------------------

@schema("comp_assoc")
def _(g):
    c3 = g.draw_inhabited_ctx()
    c2 = g.draw_inhabited_ctx()
    c1 = g.draw_inhabited_ctx()
    c0 = g.draw_ctx()
    outer = g.draw_sub(c2, c3)
    mid = g.draw_sub(c1, c2)
    inner = g.draw_sub(c0, c1)
    return EqInstance(c0, c3,
                      Comp(Comp(outer, mid), inner),
                      Comp(outer, Comp(mid, inner)))


@schema("comp_idl")
def _(g):
    dom, cod, sub = _sub_between(g)
    return EqInstance(dom, cod, Comp(IdSub(), sub), sub)


@schema("comp_idr")
def _(g):
    dom, cod, sub = _sub_between(g)
    return EqInstance(dom, cod, Comp(sub, IdSub()), sub)


# -- substitution action -----------------------------------------------------

@schema("ty_sub_id")
def _(g):
    ctx = g.draw_ctx()
    ty = g.draw_ty(ctx)
    return EqInstance(ctx, None, TySub(ty, IdSub()), ty)


@schema("ty_sub_comp")
def _(g):
    mid, cod, outer = _sub_between(g, g.draw_inhabited_ctx())
    dom = g.draw_ctx()
    inner = g.draw_sub(dom, mid)
    ty = g.draw_ty(cod)
    return EqInstance(dom, None,
                      TySub(ty, Comp(outer, inner)),
                      TySub(TySub(ty, outer), inner))


@schema("tm_sub_id")
def _(g):
    ctx = g.draw_ctx()
    ty = g.draw_inhabited_ty(ctx)
    tm = g.draw_tm(ctx, ty)
    return EqInstance(ctx, ty, TmSub(tm, IdSub()), tm)


@schema("tm_sub_comp")
def _(g):
    mid, cod, outer = _sub_between(g, g.draw_inhabited_ctx())
    dom = g.draw_ctx()
    inner = g.draw_sub(dom, mid)
    ty = g.draw_inhabited_ty(cod)
    tm = g.draw_tm(cod, ty)
    classifier = TySub(ty, Comp(outer, inner))
    return EqInstance(dom, classifier,
                      TmSub(tm, Comp(outer, inner)),
                      TmSub(TmSub(tm, outer), inner))


# -- terminal context and extension ------------------------------------------

@schema("empty_sub_unique")
def _(g):
    ctx = g.draw_ctx()
    sub = g.draw_sub(ctx, EMPTY)
    return EqInstance(ctx, EMPTY, sub, Eps())


@schema("ext_beta1")
def _(g):
    dom, cod, sub, ty = _ty_and_sub(g)
    tm = g.draw_tm(dom, TySub(ty, sub))
    return EqInstance(dom, cod, Comp(Wk(), Ext(sub, ty, tm)), sub)


@schema("ext_beta2")
def _(g):
    dom, cod, sub, ty = _ty_and_sub(g)
    tm = g.draw_tm(dom, TySub(ty, sub))
    return EqInstance(dom, TySub(ty, sub), TmSub(Var0(), Ext(sub, ty, tm)), tm)


@schema("ext_eta")
def _(g):
    base = g.draw_ctx()
    ty = g.draw_ty(base)
    ctx = base.extend(ty)
    return EqInstance(ctx, ctx, Ext(Wk(), ty, Var0()), IdSub())


@schema("ext_comp")
def _(g):
    mid, cod, outer = _sub_between(g, g.draw_inhabited_ctx())
    ty = g.draw_inhabited_ty(cod)
    tm = g.draw_tm(mid, TySub(ty, outer))
    dom = g.draw_ctx()
    inner = g.draw_sub(dom, mid)
    return EqInstance(dom, cod.extend(ty),
                      Comp(Ext(outer, ty, tm), inner),
                      Ext(Comp(outer, inner), ty, TmSub(tm, inner)))


# -- functions ----------------------------------------------------------------

@schema("pi_beta")
def _(g):
    ctx, dom, cod = _binder_data(g, g.draw_ty)
    body = g.draw_tm(ctx.extend(dom), cod)
    return EqInstance(ctx.extend(dom), cod, App(Lam(dom, body)), body)


@schema("pi_eta")
def _(g):
    ctx, dom, cod = _binder_data(g, g.draw_ty)
    fn = g.draw_tm(ctx, Pi(dom, cod))
    return EqInstance(ctx, Pi(dom, cod), Lam(dom, App(fn)), fn)


@schema("pi_sub")
def _(g):
    dom_ctx, cod_ctx, sub = _sub_between(g)
    a = g.draw_ty(cod_ctx)
    b = g.draw_ty(cod_ctx.extend(a))
    return EqInstance(dom_ctx, None,
                      TySub(Pi(a, b), sub),
                      Pi(TySub(a, sub), TySub(b, lift(sub, a))))


@schema("lam_sub")
def _(g):
    dom_ctx, cod_ctx, sub = _sub_between(g)
    a = g.draw_ty(cod_ctx)
    b = g.draw_inhabited_ty(cod_ctx.extend(a))
    body = g.draw_tm(cod_ctx.extend(a), b)
    return EqInstance(dom_ctx, TySub(Pi(a, b), sub),
                      TmSub(Lam(a, body), sub),
                      Lam(TySub(a, sub), TmSub(body, lift(sub, a))))


# -- pairs ---------------------------------------------------------------------

@schema("sigma_beta1")
def _(g):
    ctx, dom, cod = _binder_data(g, g.draw_inhabited_ty)
    a = g.draw_tm(ctx, dom)
    b = g.draw_tm(ctx, TySub(cod, Ext(IdSub(), dom, a)))
    return EqInstance(ctx, dom, Fst(Pair(dom, cod, a, b)), a)


@schema("sigma_beta2")
def _(g):
    ctx, dom, cod = _binder_data(g, g.draw_inhabited_ty)
    a = g.draw_tm(ctx, dom)
    at_a = TySub(cod, Ext(IdSub(), dom, a))
    b = g.draw_tm(ctx, at_a)
    return EqInstance(ctx, at_a, Snd(Pair(dom, cod, a, b)), b)


@schema("sigma_eta")
def _(g):
    ctx, dom, cod = _binder_data(g, g.draw_inhabited_ty)
    p = g.draw_tm(ctx, Sigma(dom, cod))
    return EqInstance(ctx, Sigma(dom, cod), Pair(dom, cod, Fst(p), Snd(p)), p)


@schema("sigma_sub")
def _(g):
    dom_ctx, cod_ctx, sub = _sub_between(g)
    a = g.draw_ty(cod_ctx)
    b = g.draw_ty(cod_ctx.extend(a))
    return EqInstance(dom_ctx, None,
                      TySub(Sigma(a, b), sub),
                      Sigma(TySub(a, sub), TySub(b, lift(sub, a))))


@schema("pair_sub")
def _(g):
    dom_ctx, cod_ctx, sub = _sub_between(g)
    a = g.draw_inhabited_ty(cod_ctx)
    b = g.draw_inhabited_ty(cod_ctx.extend(a))
    u = g.draw_tm(cod_ctx, a)
    w = g.draw_tm(cod_ctx, TySub(b, Ext(IdSub(), a, u)))
    return EqInstance(dom_ctx, TySub(Sigma(a, b), sub),
                      TmSub(Pair(a, b, u, w), sub),
                      Pair(TySub(a, sub), TySub(b, lift(sub, a)),
                           TmSub(u, sub), TmSub(w, sub)))


# -- unit ----------------------------------------------------------------------

@schema("top_eta")
def _(g):
    ctx = g.draw_ctx()
    tm = g.draw_tm(ctx, Top())
    return EqInstance(ctx, Top(), tm, Tt())


@schema("top_sub")
def _(g):
    dom, _, sub = _sub_between(g)
    return EqInstance(dom, None, TySub(Top(), sub), Top())


@schema("tt_sub")
def _(g):
    dom, _, sub = _sub_between(g)
    return EqInstance(dom, Top(), TmSub(Tt(), sub), Tt())


# -- universe -------------------------------------------------------------------

@schema("univ_beta")
def _(g):
    ctx = g.draw_ctx()
    ty = g.draw_ty(ctx)
    return EqInstance(ctx, None, El(Code(ty)), ty)


@schema("univ_eta")
def _(g):
    ctx = g.draw_ctx()
    level = g.rng.randint(0, max(g.cfg.max_level - 1, 0))
    code = g.draw_tm(ctx, Univ(level))
    return EqInstance(ctx, Univ(level), Code(El(code)), code)


@schema("univ_sub")
def _(g):
    dom, _, sub = _sub_between(g)
    level = g.rng.randint(0, max(g.cfg.max_level - 1, 0))
    return EqInstance(dom, None, TySub(Univ(level), sub), Univ(level))


@schema("el_sub")
def _(g):
    dom, cod, sub = _sub_between(g)
    level = g.rng.randint(0, max(g.cfg.max_level - 1, 0))
    code = g.draw_tm(cod, Univ(level))
    return EqInstance(dom, None, TySub(El(code), sub), El(TmSub(code, sub)))


# -- booleans --------------------------------------------------------------------

def _bool_branch_data(g):
    ctx = g.draw_ctx()
    motive = g.draw_inhabited_ty(ctx.extend(Bool()))
    on_true = g.draw_tm(ctx, TySub(motive, Ext(IdSub(), Bool(), TrueLit())))
    on_false = g.draw_tm(ctx, TySub(motive, Ext(IdSub(), Bool(), FalseLit())))
    return ctx, motive, on_true, on_false


@schema("bool_beta1")
def _(g):
    ctx, motive, on_true, on_false = _bool_branch_data(g)
    return EqInstance(ctx, TySub(motive, Ext(IdSub(), Bool(), TrueLit())),
                      If(motive, on_true, on_false, TrueLit()), on_true)


@schema("bool_beta2")
def _(g):
    ctx, motive, on_true, on_false = _bool_branch_data(g)
    return EqInstance(ctx, TySub(motive, Ext(IdSub(), Bool(), FalseLit())),
                      If(motive, on_true, on_false, FalseLit()), on_false)


@schema("bool_sub")
def _(g):
    dom, _, sub = _sub_between(g)
    return EqInstance(dom, None, TySub(Bool(), sub), Bool())


@schema("true_sub")
def _(g):
    dom, _, sub = _sub_between(g)
    return EqInstance(dom, Bool(), TmSub(TrueLit(), sub), TrueLit())


@schema("false_sub")
def _(g):
    dom, _, sub = _sub_between(g)
    return EqInstance(dom, Bool(), TmSub(FalseLit(), sub), FalseLit())


@schema("if_sub")
def _(g):
    dom_ctx, cod_ctx, sub = _sub_between(g)
    motive = g.draw_inhabited_ty(cod_ctx.extend(Bool()))
    on_true = g.draw_tm(cod_ctx, TySub(motive, Ext(IdSub(), Bool(), TrueLit())))
    on_false = g.draw_tm(cod_ctx, TySub(motive, Ext(IdSub(), Bool(), FalseLit())))
    scrut = g.draw_tm(cod_ctx, Bool())
    classifier = TySub(TySub(motive, Ext(IdSub(), Bool(), scrut)), sub)
    return EqInstance(dom_ctx, classifier,
                      TmSub(If(motive, on_true, on_false, scrut), sub),
                      If(TySub(motive, lift(sub, Bool())),
                         TmSub(on_true, sub), TmSub(on_false, sub),
                         TmSub(scrut, sub)))


# -- identity --------------------------------------------------------------------

@schema("id_beta")
def _(g):
    ctx = g.draw_ctx()
    dom = g.draw_inhabited_ty(ctx)
    base_pt = g.draw_tm(ctx, dom)
    eq_entry = j_binder(dom, base_pt)
    motive = g.draw_inhabited_ty(ctx.extend(dom).extend(eq_entry))
    at_refl = _at_point(dom, eq_entry, base_pt, Refl(base_pt))
    base = g.draw_tm(ctx, TySub(motive, at_refl))
    return EqInstance(ctx, TySub(motive, at_refl),
                      J(motive, base, Refl(base_pt)), base)


@schema("id_ty_sub")
def _(g):
    dom_ctx, cod_ctx, sub = _sub_between(g)
    a = g.draw_inhabited_ty(cod_ctx)
    lhs_pt = g.draw_tm(cod_ctx, a)
    rhs_pt = g.draw_tm(cod_ctx, a)
    return EqInstance(dom_ctx, None,
                      TySub(IdTy(a, lhs_pt, rhs_pt), sub),
                      IdTy(TySub(a, sub), TmSub(lhs_pt, sub), TmSub(rhs_pt, sub)))


@schema("refl_sub")
def _(g):
    dom_ctx, cod_ctx, sub = _sub_between(g)
    a = g.draw_inhabited_ty(cod_ctx)
    pt = g.draw_tm(cod_ctx, a)
    return EqInstance(dom_ctx, TySub(IdTy(a, pt, pt), sub),
                      TmSub(Refl(pt), sub), Refl(TmSub(pt, sub)))


@schema("j_sub")
def _(g):
    cod_base = g.draw_inhabited_ctx()
    dom0 = g.draw_inhabited_ty(cod_base)
    pt = g.draw_tm(cod_base, dom0)
    neutral = g.rng.random() < 0.5
    if neutral:
        # equation with a neutral scrutinee: bind it in the codomain context
        other = g.draw_tm(cod_base, dom0)
        cod_ctx = cod_base.extend(IdTy(dom0, pt, other))
        dom = TySub(dom0, Wk())
        lhs_pt, rhs_pt = TmSub(pt, Wk()), TmSub(other, Wk())
        eq: TmExpr = Var0()
    else:
        cod_ctx, dom = cod_base, dom0
        lhs_pt = rhs_pt = pt
        eq = g.draw_tm(cod_ctx, IdTy(dom, pt, pt))
    eq_entry = j_binder(dom, lhs_pt)
    motive = g.draw_inhabited_ty(cod_ctx.extend(dom).extend(eq_entry))
    at_refl = _at_point(dom, eq_entry, lhs_pt, Refl(lhs_pt))
    base = g.draw_tm(cod_ctx, TySub(motive, at_refl))
    # the scrutinee's entry is inhabited only by a variable: a domain that
    # extends the codomain holds one
    dom_ctx = (cod_ctx.extend(g.draw_ty(cod_ctx)) if neutral
               else g.draw_ctx())
    sub = g.draw_sub(dom_ctx, cod_ctx)
    classifier = TySub(
        TySub(motive, _at_point(dom, eq_entry, rhs_pt, eq)), sub)
    return EqInstance(dom_ctx, classifier,
                      TmSub(J(motive, base, eq), sub),
                      J(TySub(motive, lift(lift(sub, dom), eq_entry)),
                        TmSub(base, sub), TmSub(eq, sub)))


SCHEMA_NAMES = tuple(SCHEMAS)
assert len(SCHEMA_NAMES) == 38
