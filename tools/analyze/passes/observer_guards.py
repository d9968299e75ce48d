"""observer-guards — observability must stay zero-cost and FF-fenced.

The observability stack (PRs 2/8) is attach-only: tracer, sampler and
profiler pointers are null by default and model code must null-guard
every dereference, so an unobserved run does no extra work and — more
importantly — an observed run takes the *same schedule*. A missing
guard is a crash in the default configuration; a cycle-driven sampler
consulted outside the fast-forward fence silently loses samples when
idle spans are elided.

Two rules over model code (``src/{core,cta,mem,gpu,serve}``):

 - every ``tracer_->`` / ``profiler_->`` / ``obs_.sampler->`` …
   dereference must be dominated by a null check of that same member
   within the enclosing function (``unguarded-call``);
 - a module polling ``sampler->due(now)`` must also feed the sampler's
   ``nextDue()`` into its fast-forward bound (``unfenced-sampler``),
   the PR 8 convention that keeps sampling cadence identical with
   fast-forward on and off.
"""

from __future__ import annotations

import re

from ..engine import Context, Finding

NAME = "observer-guards"

RULES = {
    "unguarded-call": "observer pointer dereferenced without a null "
                      "guard in the enclosing function; observers are "
                      "optional and null by default",
    "unfenced-sampler": "module polls IntervalSampler::due() but never "
                        "consults nextDue(); idle fast-forward will "
                        "elide sample cycles and the artifact will "
                        "differ with fast-forward on/off",
}

SCOPE = ("src/core/", "src/cta/", "src/mem/", "src/gpu/", "src/serve/")

MEMBER_RE = re.compile(
    r"\b(obs_\.(?:tracer|sampler|profiler|memProfiler|phase|sampleSource)"
    r"|tracer_|sampler_|profiler_|memProfiler_|trace_)\s*->"
)

DUE_RE = re.compile(r"(?:->|\.)due\s*\(")
NEXT_DUE_RE = re.compile(r"\bnextDue\s*\(")


def _guarded(lines: list[str], call_line_idx: int, member: str) -> bool:
    """True if ``member`` is null-tested between the enclosing
    function's opening and the call.

    Function bodies open with ``{`` at column 0 in this codebase
    (.cc files), so the backward scan is fenced by column-0 braces;
    a generous line cap bounds header-inline bodies, which indent
    their braces.
    """
    esc = re.escape(member)
    guard = re.compile(
        rf"{esc}\s*(?:!=|==)\s*nullptr"        # x != nullptr / == nullptr
        rf"|if\s*\(\s*!?\s*{esc}\s*\)"          # if (x) / if (!x)
        rf"|{esc}\s*&&|&&\s*{esc}"              # x && ... / ... && x
        rf"|!\s*{esc}[\s)]"                     # !x (early return)
        rf"|{esc}\s*\?"                         # x ? x->... : ...
    )
    for idx in range(call_line_idx, -1, -1):
        if guard.search(lines[idx]):
            return True
        line = lines[idx]
        if idx != call_line_idx and (line.startswith("{")
                                     or line.startswith("}")):
            return False  # reached the enclosing function's boundary
        if call_line_idx - idx > 300:
            return False
    return False


def run(ctx: Context) -> list[Finding]:
    findings: list[Finding] = []

    module_text: dict[str, str] = {}
    for src in ctx.in_dirs(*SCOPE):
        stem = re.sub(r"\.(hh|cc)$", "", src.rel)
        module_text[stem] = module_text.get(stem, "") + src.stripped

    for src in ctx.in_dirs(*SCOPE):
        text = src.stripped
        lines = text.split("\n")
        for match in MEMBER_RE.finditer(text):
            member = match.group(1)
            line_idx = text.count("\n", 0, match.start())
            if not _guarded(lines, line_idx, member):
                findings.append(Finding(
                    file=src.rel, line=line_idx + 1,
                    rule=f"{NAME}.unguarded-call",
                    message=f"'{member}->' dereference without a "
                            f"dominating '{member} != nullptr' check — "
                            + RULES["unguarded-call"],
                ))

        for match in DUE_RE.finditer(text):
            stem = re.sub(r"\.(hh|cc)$", "", src.rel)
            if not NEXT_DUE_RE.search(module_text.get(stem, "")):
                findings.append(Finding(
                    file=src.rel,
                    line=text.count("\n", 0, match.start()) + 1,
                    rule=f"{NAME}.unfenced-sampler",
                    message=RULES["unfenced-sampler"],
                ))
    return findings
