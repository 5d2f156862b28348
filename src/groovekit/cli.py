"""Command-line interface.

Subcommands:
  onsets   audio -> annotation CSV (detect, merge, optional edits)
  analyze  audio or annotation CSV -> report.json + CSV sidecars
  synth    groove parameters -> annotation CSV (+ optional click-track WAV),
           or a raw power-law series with --series-only

Exit codes: 0 success, 1 degenerate analysis (e.g. too few onsets),
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import math
import sys
from pathlib import Path

from . import _LAZY
from ._csvio import write_rows
from ._version import __version__
from .analysis import (
    AnalysisParams,
    AnalysisResult,
    DegenerateInputError,
    run_analysis,
    write_analysis_outputs,
)
from .errors import EditError, GrooveKitError
from .intervals import read_sections_csv
from .onsets import (
    apply_edits,
    detect_onsets,
    merge_close_onsets,
    read_edits_csv,
    read_onsets_csv,
    write_onsets_csv,
)

__all__ = ["main"]

def _bind(*modules: str) -> None:
    """Import ``modules`` and bind their public names (``groovekit._LAZY``)
    here, so that a CSV analyze never loads the audio stack. A name already
    bound (a tracer's span, a test's monkeypatch) is kept."""
    namespace = globals()
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            namespace.setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_detection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cutoff-hz", type=_finite_float, default=1000.0,
                        help="high-pass cutoff (default 1000)")
    parser.add_argument("--threshold", type=_finite_float, default=0.1,
                        help="peak threshold as fraction of envelope peak (default 0.1)")
    parser.add_argument("--refractory-ms", type=_finite_float, default=50.0,
                        help="minimum onset separation (default 50)")
    parser.add_argument("--merge-ms", type=_finite_float, default=3.0,
                        help="double-trigger merge window (default 3)")
    parser.add_argument("--smoothing-ms", type=_finite_float, default=2.0,
                        help="envelope smoothing time constant (default 2)")


def _detect_from_audio(source, args, helper=None) -> tuple:
    """Onsets and envelope of a WavReader or an AudioClip.

    The high-pass buffer is the only clip-sized array: the high-pass fills it
    from ``source`` block by block, and it is then rectified, smoothed and
    normalized in place into the envelope that peak picking reads.
    ``helper``, ``(executor, idle)``, lends the envelope and the peak scan a
    second thread (see ``audio._envelope_into`` and ``_signal.find_peaks``).
    """
    from .audio import _envelope_into

    _bind("audio")
    clip = highpass(source, cutoff_hz=args.cutoff_hz)
    env = _envelope_into(clip, args.smoothing_ms, out=clip.samples, helper=helper)
    series = detect_onsets(env, threshold=args.threshold, refractory_ms=args.refractory_ms, _helper=helper)
    series = merge_close_onsets(series, window_ms=args.merge_ms)
    return series, env


def _cmd_onsets(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from .audio import WavReader

    # the pool runs nothing else, so its thread is always idle for the envelope
    with WavReader(args.audio) as reader, ThreadPoolExecutor(max_workers=1) as pool:
        series, env = _detect_from_audio(reader, args, helper=(pool, lambda: True))
    if args.edits:
        edits = read_edits_csv(args.edits)
        try:
            series = apply_edits(series, edits, env=env)
        except GrooveKitError as exc:
            raise EditError(f"{args.edits}: {exc}") from exc
    write_onsets_csv(args.output, series)
    print(f"wrote {len(series)} onsets to {args.output}")
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if not 0 < lo < hi:
        raise argparse.ArgumentTypeError(f"expected 0 < LO < HI, got {text!r}")
    return lo, hi


def _cmd_analyze(args) -> int:
    in_path = Path(args.input)
    sidecars = ()
    if in_path.suffix.lower() == ".csv":
        result = _analyze_series(args, read_onsets_csv(in_path))
    else:
        # local import; CSV analysis never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        from .audio import WavReader

        _bind("audio", "tempogram")
        # The tempogram shares only the file with detection, and the FFTs and
        # filters of both release the GIL, so it runs on a second thread
        # meanwhile, reading its own blocks, and encodes its two files there.
        # Once that is done, its thread takes half of the envelope and half of
        # the peak scan. The pool is joined before the file is closed. Its
        # files are written with the others, after every stage, so an error
        # in any stage or write leaves no output.
        with WavReader(args.input) as reader, ThreadPoolExecutor(max_workers=1) as pool:
            tempogram = pool.submit(_tempogram_files, reader)
            series, _ = _detect_from_audio(reader, args, helper=(pool, tempogram.done))
            result = _analyze_series(args, series)
            files = tempogram.result()
        if files is None:
            print("clip shorter than one tempogram window; skipping tempogram outputs")
        else:
            csv_bytes, summary = files
            sidecars = [("tempogram.csv", lambda p: p.write_bytes(csv_bytes)),
                        ("tempogram.json", lambda p: p.write_text(summary, encoding="utf-8"))]
    report_path = write_analysis_outputs(args.out_dir, result, sidecars=sidecars)
    print(f"wrote {report_path}")
    return 0


def _analyze_series(args, series) -> AnalysisResult:
    sections = read_sections_csv(args.sections) if args.sections else None
    params = AnalysisParams(
        bpm_hint=args.bpm_hint,
        max_multiple=args.max_multiple,
        phrase_positions=args.phrase_len,
        dfa_short=args.dfa_short,
        dfa_long=args.dfa_long,
        raw_intervals=args.raw_intervals,
    )
    return run_analysis(series, params=params, sections=sections, input_descriptor=str(args.input))


def _tempogram(source):
    """Tempogram of a WavReader or an AudioClip, or None when its novelty is
    shorter than one tempogram window."""
    _bind("tempogram")
    nov = novelty_curve(source)
    params = TempogramParams()
    if len(nov) < params.window_length:
        return None
    return fourier_tempogram(nov, params)


def _tempogram_files(source):
    """``(tempogram.csv bytes, tempogram.json text)`` of :func:`_tempogram`,
    or None when it is None."""
    tg = _tempogram(source)
    if tg is None:
        return None
    with io.BytesIO() as buffer:
        write_tempogram_csv(buffer, tg)
        csv_bytes = buffer.getvalue()  # hands over the buffer, trimmed, not a copy
    return csv_bytes, json.dumps(tempogram_summary(tg), indent=2) + "\n"


def _cmd_synth(args) -> int:
    _bind("audio", "synth")
    if args.series_only:
        rows = gen_powerlaw_noise(args.beta, args.length, seed=args.seed)
        write_rows(args.output, ["value"], "%.12g\r\n", [rows])
        print(f"wrote {len(rows)} samples to {args.output}")
        return 0
    profile = None
    if args.ramp_bpm is not None:
        profile = ((0.0, args.bpm), (float(args.bars), args.ramp_bpm))
    spec = GrooveSpec(
        bpm=args.bpm,
        swing_ratio=args.swing,
        bars=args.bars,
        jitter_sigma_ms=args.jitter_ms,
        lrc_beta=args.lrc_beta,
        lrc_sigma_ms=args.lrc_sigma_ms,
        ghost_probability=args.ghost_prob,
        amplitude_jitter=args.amplitude_jitter,
        drift_profile=profile,
    )
    series, _ = gen_shuffle_onsets(spec, seed=args.seed)
    # render before writing anything, so a rejected render flag leaves no file
    if args.render:
        clip = render_clicks(
            series,
            sample_rate=args.sample_rate,
            click_ms=args.click_ms,
            noise_db=args.noise_db,
            seed=args.seed,
        )
    write_onsets_csv(args.output, series)
    print(f"wrote {len(series)} onsets to {args.output}")
    if args.render:
        save_audio(args.render, clip)
        print(f"rendered {clip.duration_s:.2f} s of audio to {args.render}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groovekit",
        description="Drum groove quantification: onsets, shuffle grid, swing, drift, DFA.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_onsets = sub.add_parser("onsets", help="detect onsets in an audio file")
    p_onsets.add_argument("audio", help="input PCM WAV file")
    p_onsets.add_argument("-o", "--output", required=True, help="annotation CSV to write")
    p_onsets.add_argument("--edits", help="edits CSV to apply after detection")
    _add_detection_flags(p_onsets)
    p_onsets.set_defaults(func=_cmd_onsets)

    p_an = sub.add_parser("analyze", help="run the full analysis pipeline")
    p_an.add_argument("input", help="audio file or annotation CSV")
    p_an.add_argument("--out-dir", default="groovekit-out", help="output directory")
    p_an.add_argument("--bpm-hint", type=_finite_float, default=None)
    p_an.add_argument("--max-multiple", type=_finite_float, default=3.5,
                      help="discard intervals beyond this multiple of the base unit")
    p_an.add_argument("--phrase-len", type=int, default=16,
                      help="hi-hat positions per two-bar phrase (default 16)")
    p_an.add_argument("--dfa-short", type=_parse_range, default=(4, 16), metavar="LO:HI")
    p_an.add_argument("--dfa-long", type=_parse_range, default=(16, 100), metavar="LO:HI")
    p_an.add_argument("--raw-intervals", action="store_true",
                      help="run DFA on raw rather than class-normalized intervals")
    p_an.add_argument("--sections", help="section CSV (start_s,end_s,tag)")
    _add_detection_flags(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_sy = sub.add_parser("synth", help="generate ground-truth grooves or noise series")
    p_sy.add_argument("-o", "--output", required=True, help="annotation or series CSV to write")
    p_sy.add_argument("--bpm", type=_finite_float, default=84.0)
    p_sy.add_argument("--swing", type=_finite_float, default=2.0)
    p_sy.add_argument("--bars", type=int, default=4)
    p_sy.add_argument("--jitter-ms", type=_finite_float, default=0.0)
    p_sy.add_argument("--lrc-beta", type=_finite_float, default=0.0)
    p_sy.add_argument("--lrc-sigma-ms", type=_finite_float, default=0.0)
    p_sy.add_argument("--ghost-prob", type=_finite_float, default=0.0)
    p_sy.add_argument("--amplitude-jitter", type=_finite_float, default=0.0)
    p_sy.add_argument("--ramp-bpm", type=_finite_float, default=None,
                      help="linear tempo ramp target over the full length")
    p_sy.add_argument("--seed", type=_seed, default=0)
    p_sy.add_argument("--render", help="also render a click-track WAV here")
    p_sy.add_argument("--sample-rate", type=_finite_float, default=44100.0)
    p_sy.add_argument("--click-ms", type=_finite_float, default=3.0)
    p_sy.add_argument("--noise-db", type=_finite_float, default=None,
                      help="broadband noise level relative to click peak")
    p_sy.add_argument("--series-only", action="store_true",
                      help="emit a power-law noise series instead of a groove")
    p_sy.add_argument("--beta", type=_finite_float, default=1.0, help="series spectral exponent")
    p_sy.add_argument("-n", "--length", type=int, default=8192, help="series length")
    p_sy.set_defaults(func=_cmd_synth)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parse_args keeps no state between
    calls, so a batch of main() calls shares one parser."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        print(f"groovekit: {exc}", file=sys.stderr)
        return 1
    except (GrooveKitError, OSError) as exc:
        print(f"groovekit: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"groovekit: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
