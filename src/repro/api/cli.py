"""``python -m repro`` — the registry-driven experiment command line.

Usage::

    python -m repro run figure7 --preset paper --set dtype=float32
    python -m repro run table2 figure5            # several artifacts, CI scale
    python -m repro run --list                    # what can I run?
    python -m repro list                          # same listing
    python -m repro run figure9 --save-model model/fig9   # train + persist
    python -m repro serve model/fig9              # micro-batched scoring TCP
    python -m repro serve model/fig9 --self-test  # in-process service check
    python -m repro lint src --format json        # repo invariant checks

``--set key=value`` overrides route through the typed spec layer: the compute
knob ``dtype`` lands in the run's
:class:`~repro.config.ComputeSpec`, ``seed`` in the seed field, everything
else in the experiment params — all validated against the experiment's
declared knob surface before anything trains.  Values parse as Python-ish
literals: ints, floats, ``true``/``false``, ``none``, comma lists
(``--set datasets=mnist,kmnist``; trailing comma for a one-element list,
``--set datasets=mnist,``), else strings (``--set dtype=float32``).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Any, Optional, Sequence, Tuple

from repro.api.facade import run_experiment
from repro.api.registry import get_experiment, list_experiments
from repro.utils.validation import ValidationError

__all__ = ["main", "parse_set_value", "parse_set_argument", "SetArgumentError"]


class SetArgumentError(ValidationError, argparse.ArgumentTypeError):
    """A malformed ``--set`` override.

    Doubly inherits so both consumers see the type they handle:
    :class:`ValidationError` keeps the library-wide "bad input" contract
    for programmatic callers of :func:`parse_set_argument`, while
    :class:`argparse.ArgumentTypeError` makes argparse render this message
    verbatim instead of the generic ``invalid value`` it substitutes for
    plain ``ValueError`` subclasses.
    """


def parse_set_value(raw: str) -> Any:
    """Parse one ``--set`` value: int / float / bool / none / tuple / str."""
    text = raw.strip()
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        return tuple(
            parse_set_value(part) for part in text.split(",") if part.strip() != ""
        )
    return text


def parse_set_argument(text: str) -> Tuple[str, Any]:
    """Split a ``key=value`` override (argparse ``type=`` hook).

    Raises :class:`SetArgumentError` on malformed overrides, including
    non-finite numeric literals (``nan``/``inf``): every spec knob is a
    finite quantity, and a NaN seed/learning-rate would otherwise sail
    through literal parsing and fail — or worse, not fail — deep inside a
    run.
    """
    key, separator, raw = text.partition("=")
    key = key.strip()
    if not separator or not key:
        raise SetArgumentError(f"--set expects key=value, got {text!r}")
    value = parse_set_value(raw)
    items = value if isinstance(value, tuple) else (value,)
    for item in items:
        if isinstance(item, float) and not math.isfinite(item):
            raise SetArgumentError(
                f"--set {key}={raw.strip()} is non-finite: {key} must be a"
                " finite number"
            )
    return key, value


def _print_listing(stream) -> None:
    """Render the experiment/preset table the ``list`` forms print."""
    rows = [
        (
            experiment.name,
            ",".join(experiment.presets),
            experiment.description,
        )
        for experiment in list_experiments()
    ]
    name_width = max(len("experiment"), *(len(row[0]) for row in rows))
    preset_width = max(len("presets"), *(len(row[1]) for row in rows))
    print(
        f"{'experiment'.ljust(name_width)}  {'presets'.ljust(preset_width)}  description",
        file=stream,
    )
    for name, presets, description in rows:
        print(
            f"{name.ljust(name_width)}  {presets.ljust(preset_width)}  {description}",
            file=stream,
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments through the typed run-spec API.",
    )
    subparsers = parser.add_subparsers(dest="command")

    run_parser = subparsers.add_parser(
        "run", help="run one or more registered experiments"
    )
    run_parser.add_argument(
        "experiments", nargs="*", metavar="experiment",
        help="registered experiment names (see --list)",
    )
    run_parser.add_argument(
        "--preset", default="ci",
        help="named preset to start from (default: ci)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the preset's master seed",
    )
    run_parser.add_argument(
        "--set", dest="overrides", metavar="KEY=VALUE",
        type=parse_set_argument, action="append", default=[],
        help="override a spec knob (repeatable); the compute knob "
             "dtype routes into the ComputeSpec; "
             "comma-separate lists (trailing comma for one element)",
    )
    run_parser.add_argument(
        "--list", action="store_true",
        help="list registered experiments and presets, then exit",
    )
    run_parser.add_argument(
        "--save-model", dest="save_model", metavar="PATH", default=None,
        help="persist the experiment's trained model as a serving artifact "
             "(<PATH>.npz + <PATH>.json); the experiment must support "
             "keep_model (figure9/figure10) and exactly one may be named",
    )
    run_parser.add_argument(
        "--quantize", action="store_true",
        help="store the --save-model artifact quantized: symmetric int8"
             " codes + float32 scales, ~4x smaller on disk; load_model"
             " dequantizes back to float32 parameters",
    )

    subparsers.add_parser("list", help="list registered experiments and presets")

    serve_parser = subparsers.add_parser(
        "serve", help="serve saved model artifacts over micro-batched TCP"
    )
    serve_parser.add_argument(
        "artifacts", metavar="ARTIFACT", nargs="+",
        help="artifact bundle stem(s) (or their .npz/.json paths) from"
             " --save-model / repro.serve.save_model; with several, requests"
             ' route by {"model": <file stem>}',
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8787)
    serve_parser.add_argument(
        "--max-batch", dest="max_batch", type=int, default=64,
        help="maximum rows per coalesced scoring call (default: 64)",
    )
    serve_parser.add_argument(
        "--max-delay-ms", dest="max_delay_ms", type=float, default=2.0,
        help="how long a batch lingers for stragglers (default: 2 ms)",
    )
    serve_parser.add_argument(
        "--self-test", dest="self_test", action="store_true",
        help="run the in-process service check (concurrent requests, "
             "bit-identity vs direct scoring, p50/p99 report) and exit "
             "instead of binding a socket",
    )

    from repro.tools.lint.runner import build_parser as build_lint_parser

    build_lint_parser(
        subparsers.add_parser(
            "lint",
            help="run reprolint, the repo's AST checks (R001-R004)",
            description="reprolint: AST-based checks of the repo's"
            " invariants (see docs/dev.md).",
        )
    )
    return parser


def _run_serve(args) -> int:
    import asyncio

    from repro.serve import load_model, run_self_test, serve_forever

    try:
        artifacts = [load_model(path) for path in args.artifacts]
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.self_test:
        for artifact in artifacts:
            try:
                report = run_self_test(artifact)
            except ValidationError as error:
                print(f"error: self-test failed: {error}", file=sys.stderr)
                return 1
            print(
                f"serve self-test OK: kind={report['kind']} "
                f"n_features={report['n_features']} "
                f"verified={report['verified_requests']} requests in "
                f"{report['coalesced']['batches']} coalesced batches "
                f"(max {report['coalesced']['max_batch_rows']} rows) | "
                f"p50={report['p50_ms']:.2f}ms p99={report['p99_ms']:.2f}ms "
                f"{report['req_per_s']:.0f} req/s"
            )
        return 0

    def _ready(host: str, port: int) -> None:
        described = ", ".join(
            f"{artifact.kind}:{artifact.path}" for artifact in artifacts
        )
        print(
            f"serving {described} on "
            f"{host}:{port} (newline-delimited JSON; "
            f"max_batch={args.max_batch}, linger={args.max_delay_ms}ms)",
            flush=True,
        )

    try:
        asyncio.run(
            serve_forever(
                artifacts,
                host=args.host,
                port=args.port,
                max_batch_size=args.max_batch,
                max_delay_s=args.max_delay_ms / 1e3,
                ready_callback=_ready,
            )
        )
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        _print_listing(sys.stdout)
        return 0
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "lint":
        from repro.tools.lint.runner import run_lint

        return run_lint(
            args.paths,
            select=args.select,
            output_format=args.output_format,
            list_rules=args.list_rules,
        )
    if args.command != "run":
        parser.print_help()
        return 2
    if args.list:
        _print_listing(sys.stdout)
        return 0
    if not args.experiments:
        parser.error("run needs at least one experiment name (or --list)")
    if args.save_model is not None and len(args.experiments) != 1:
        parser.error("--save-model requires exactly one experiment name")
    if args.quantize and args.save_model is None:
        parser.error("--quantize only applies to --save-model artifacts")

    try:
        specs = []
        for name in args.experiments:
            experiment = get_experiment(name)
            spec = experiment.preset(args.preset)
            overrides = dict(args.overrides)
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.save_model is not None:
                if "keep_model" not in experiment.accepts:
                    raise ValidationError(
                        f"experiment {experiment.name!r} does not support"
                        " --save-model (no keep_model knob); model-producing"
                        " experiments: figure9, figure10"
                    )
                overrides["keep_model"] = True
            if overrides:
                # Any override — --set or --seed — flips the recorded
                # preset label to "custom": the run no longer is the preset.
                spec = spec.with_overrides(**overrides)
            # Validate every spec against its runner before the first
            # (potentially hours-long) experiment starts.
            experiment.materialize_kwargs(spec)
            specs.append((experiment, spec))
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    for experiment, spec in specs:
        start = time.perf_counter()
        try:
            result = run_experiment(spec)
        except ValidationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        print(
            f"\n=== {experiment.name} "
            f"(preset {spec.preset}, took {elapsed:.1f}s) ==="
        )
        print(experiment.formatter(result))
        if args.save_model is not None:
            from repro.config.specs import RunSpec
            from repro.serve import save_model

            model = result.artifacts.get("model")
            if model is None:
                print(
                    f"error: experiment {experiment.name!r} returned no"
                    " trained model to save",
                    file=sys.stderr,
                )
                return 2
            try:
                npz_path = save_model(
                    model,
                    args.save_model,
                    run_spec=RunSpec.from_dict(result.metadata["run_spec"])
                    if "run_spec" in result.metadata
                    else None,
                    quantize=args.quantize,
                )
            except ValidationError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            print(f"saved {experiment.name} model artifact to {npz_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
