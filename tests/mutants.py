"""One-clause mutants of the kernel, for the mutation table.

Each mutant changes one clause of a translation fold or of the evaluator
and leaves every other clause as it is.  The memoized folds look up their
own name as a module global when they recurse, so a wrapper patched over
that name takes effect once the memo tables are empty: ``apply`` empties
them and patches the mutant in, and the caller undoes the patch and
empties them again.  ``termify`` is bound in two modules, and
``check_embedding`` calls the one in ``injectivity`` directly, so both
are patched.
"""

import ttk.injectivity
import ttk.parametricity
import ttk.semantics
import ttk.termify
from ttk import caches
from ttk.syntax import (
    App, Bool, FalseLit, Fst, If, Lam, Refl, Snd, Top, TrueLit, Tt,
)

_SWAP = {Fst: Snd, Snd: Fst}


def _fold_mutant(modules, name, classes, rewrite):
    """A mutant of the fold ``name``: its output for a node of one of
    ``classes`` is ``rewrite(ctx, node, output)``."""
    def apply(monkeypatch):
        real = getattr(modules[0], name)

        def mutant(ctx, x):
            out = real(ctx, x)
            return rewrite(ctx, x, out) if type(x) in classes else out
        for module in modules:
            monkeypatch.setattr(module, name, mutant)
    return apply


def _termify(classes, rewrite_body):
    """A ``termify`` mutant: a translated term is ``Lam(points, body)``,
    and ``rewrite_body`` gives the new body."""
    return _fold_mutant(
        (ttk.termify, ttk.injectivity), "termify", classes,
        lambda ctx, x, out: Lam(out.dom, rewrite_body(ctx, x, out.body)))


def _param(classes, rewrite):
    return _fold_mutant((ttk.parametricity,), "param", classes, rewrite)


def _vif_swapped(monkeypatch):
    real = ttk.semantics.vif
    monkeypatch.setattr(ttk.semantics, "vif", lambda motive, on_true,
                        on_false, scrut: real(motive, on_false, on_true,
                                              scrut))


MUTANTS = {
    "termify-false-true": _termify(
        {FalseLit}, lambda ctx, x, body: TrueLit()),
    "termify-fst-snd": _termify(
        {Fst, Snd}, lambda ctx, x, body: _SWAP[type(body)](body.pair)),
    "termify-if-swapped": _termify(
        {If}, lambda ctx, x, body: If(body.motive, body.on_false,
                                      body.on_true, body.scrut)),
    "termify-refl-false": _termify(
        {Refl}, lambda ctx, x, body: body if type(x.arg) is not FalseLit
        else Refl(App(ttk.termify.termify(ctx, TrueLit())))),
    "param-top-bool": _param({Top}, lambda ctx, x, out: Bool()),
    "param-refl-true-tt": _param(
        {Refl}, lambda ctx, x, out: Tt() if type(x.arg) is TrueLit else out),
    "param-fst-snd": _param(
        {Fst, Snd}, lambda ctx, x, out: _SWAP[type(out)](out.pair)),
    "vif-swapped": _vif_swapped,
}


def apply(monkeypatch, mutant: str) -> None:
    """Patch ``mutant`` in through ``monkeypatch`` on empty memo tables."""
    caches.clear_all()
    MUTANTS[mutant](monkeypatch)
