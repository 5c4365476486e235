#!/usr/bin/env python
"""Generate the backend capability matrix in ``docs/backends.md`` from the registry.

The matrix between the ``BEGIN``/``END`` markers in ``docs/backends.md`` is
*generated*, never hand-edited: this script renders it from the live registry
(:mod:`repro.backends`), so the documentation cannot drift from the code.  The
Options column lists each adapter's constructor options with their defaults,
read from the constructor signature.

Usage::

    python docs/gen_backend_matrix.py            # rewrite the matrix in place
    python docs/gen_backend_matrix.py --check    # exit 1 if docs/backends.md is stale

CI runs ``--check``; if it fails, regenerate and commit the result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DOC_PATH = ROOT / "docs" / "backends.md"
BEGIN = "<!-- BEGIN GENERATED BACKEND MATRIX (python docs/gen_backend_matrix.py) -->"
END = "<!-- END GENERATED BACKEND MATRIX -->"


def render_matrix() -> str:
    """Render the registry's capability matrix as a GitHub-flavoured table."""
    from repro.backends import backend_aliases, backend_names
    from repro.backends.registry import _REGISTRY, adapter_options

    aliases = backend_aliases()
    headers = [
        "Backend",
        "Aliases",
        "Noisy",
        "Exact",
        "Stochastic",
        "Max qubits",
        "Product states only",
        "Options",
        "Simulator",
    ]
    rows = []
    for name in backend_names():
        cls = _REGISTRY[name]
        caps = cls.capabilities
        doc = (cls.__doc__ or "").strip().splitlines()[0] if cls.__doc__ else ""
        # Pipes inside docstrings (Dirac notation) would break the table cell.
        doc = doc.replace("|", "\\|")
        rows.append(
            [
                f"`{name}`",
                ", ".join(f"`{alias}`" for alias in aliases[name]) or "–",
                "yes" if caps.noisy else "no",
                "yes" if caps.exact else "no",
                "yes" if caps.stochastic else "no",
                str(caps.max_qubits) if caps.max_qubits is not None else "–",
                "yes" if caps.needs_product_state else "no",
                ", ".join(
                    f"`{option}={default!r}`" for option, default in adapter_options(name).items()
                ) or "–",
                doc,
            ]
        )
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def updated_document(text: str) -> str:
    """Replace the generated section of ``docs/backends.md`` with a fresh matrix."""
    begin = text.find(BEGIN)
    end = text.find(END)
    if begin < 0 or end < 0 or end < begin:
        raise SystemExit(
            f"{DOC_PATH} is missing the generated-matrix markers:\n  {BEGIN}\n  {END}"
        )
    return text[: begin + len(BEGIN)] + "\n" + render_matrix() + "\n" + text[end:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if docs/backends.md is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)

    current = DOC_PATH.read_text()
    fresh = updated_document(current)
    if args.check:
        if current != fresh:
            print(
                f"{DOC_PATH} is stale relative to the backend registry; "
                "run 'python docs/gen_backend_matrix.py' and commit the result.",
                file=sys.stderr,
            )
            return 1
        print(f"{DOC_PATH}: backend matrix is up to date")
        return 0
    if current != fresh:
        DOC_PATH.write_text(fresh)
        print(f"{DOC_PATH}: backend matrix regenerated")
    else:
        print(f"{DOC_PATH}: backend matrix already up to date")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
