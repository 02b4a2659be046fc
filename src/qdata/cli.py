"""Command-line entry point.

Subcommands:

* ``run <scenario-file> [--out <path>] [--seed <u64>] [--threads <n>]``
* ``demo <name>`` for the packaged example scenarios
* ``report summarize <report-file>``
* ``report diff <a> <b>``

Exit codes: 0 on success, 1 on scenario or usage errors and when a job of
the run records an error entry (the report or the verdict lines still come
out first), 2 on internal errors.  ``report diff`` exits 0 when the reports
agree, 1 when they differ and 2 on a usage error or when either file cannot
be read as a report.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import traceback
from importlib import resources

from .harness import (
    diff_reports,
    dump_report,
    load_report,
    run_scenario,
    summarize_report,
    write_report,
)
from .linalg import InvalidInputError, as_integer, as_seed
from .scenario import ScenarioError, parse_scenario

__all__ = ["DEMOS", "main"]

# a packaged scenario file per demo, named by its stem with "_" read as "-"
DEMOS = {
    path.name.removesuffix(".json").replace("_", "-"): path
    for path in resources.files("qdata").joinpath("scenarios").iterdir()
    if path.name.endswith(".json")
}


class _Parser(argparse.ArgumentParser):
    # usage problems are user errors, not internal ones
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _seed_value(text: str) -> int:
    return _checked(text, lambda: as_seed(int(text, 0)))


def _threads_value(text: str) -> int:
    return _checked(text, lambda: as_integer(int(text), "threads", least=1))


def _checked(text: str, parse):
    """``parse()``, with its error turned into a usage error."""
    try:
        return parse()
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:  # int() of text that is not an integer
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdata", description="scenario-driven box-model test runner")
    sub = parser.add_subparsers(dest="command", metavar="command")

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", help="write the report here instead of stdout")
    run_p.add_argument("--seed", type=_seed_value, default=None, help="override the master seed")
    run_p.add_argument("--threads", type=_threads_value, default=1, help="worker threads")

    demo_p = sub.add_parser("demo", help="run a packaged example scenario")
    demo_p.add_argument("name", choices=sorted(DEMOS), help="demo name")

    report_p = sub.add_parser("report", help="inspect report files")
    report_sub = report_p.add_subparsers(dest="report_command", metavar="subcommand")
    summarize_p = report_sub.add_parser("summarize", help="print a report digest")
    summarize_p.add_argument("report_file", help="path to a report JSON file")
    diff_p = report_sub.add_parser("diff", help="compare two reports, timestamp ignored")
    diff_p.add_argument("a", help="path to the first report")
    diff_p.add_argument("b", help="path to the second report")
    return parser


def _print_result_lines(report: dict) -> None:
    for cell in report["cells"]:
        bindings = ", ".join(f"{k}={v}" for k, v in sorted(cell["params"].items()))
        label = f"cell {cell['cell_index']}" + (f" ({bindings})" if bindings else "")
        for result in cell["results"]:
            if "error" in result:
                print(f"{label}: {result['detector']} error: {result['error']}")
                continue
            verdict = result["verdict"]
            print(
                "{}: {} statistic={:.6g} threshold={:.6g} verdict={}".format(
                    label,
                    result["detector"],
                    verdict["statistic"],
                    verdict["threshold"],
                    verdict["verdict"],
                )
            )


def _exit_code(report: dict) -> int:
    """1, with a line on stderr, when any job of the report recorded an error."""
    errors = report["summary"]["error_count"]
    if errors:
        sys.stderr.write(f"qdata: {errors} job(s) recorded an error\n")
        return 1
    return 0


def _check_report_path(path: str) -> None:
    """Fail before the first job when the report cannot be written to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ScenarioError(f"{path}: cannot write the report ({os.strerror(code)})")


def _cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    if args.out:
        _check_report_path(args.out)
    report = run_scenario(scenario, threads=args.threads, seed=args.seed)
    if args.out:
        try:
            write_report(report, args.out)
        except OSError as exc:
            raise ScenarioError(f"{args.out}: cannot write the report ({exc.strerror})") from None
        print(summarize_report(report))
    else:
        dump_report(report, sys.stdout)
    return _exit_code(report)


def _cmd_demo(args) -> int:
    report = run_scenario(parse_scenario(DEMOS[args.name]))
    _print_result_lines(report)
    return _exit_code(report)


def _read_report(path: str) -> dict:
    """``load_report(path)``, with a file that cannot be read as a report a ScenarioError."""
    try:
        return load_report(path)
    except FileNotFoundError:
        raise ScenarioError(f"report file not found: {path}") from None
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read the report file ({exc.strerror})") from None
    except ValueError as exc:  # malformed JSON, bad UTF-8 or a non-finite number
        raise ScenarioError(f"{path}: not a report file ({exc})") from None


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _cmd_report_diff(args) -> int:
    try:
        findings = diff_reports(_read_report(args.a), _read_report(args.b))
    except ScenarioError as exc:
        sys.stderr.write(f"qdata: {exc}\n")
        return 2
    if not findings:
        print("same")
        return 0
    for kind, where, before, after in findings:
        if kind == "number":
            print(f"number   max move {abs(after - before):.3g} at {where} ({before!r} -> {after!r})")
        else:
            print(f"{kind:<8} {where}: {_brief(before)} -> {_brief(after)}")
    return 1


def _cmd_report(args) -> int:
    if args.report_command == "diff":
        return _cmd_report_diff(args)
    if args.report_command != "summarize":
        raise ScenarioError("usage: qdata report {summarize <report-file> | diff <a> <b>}")
    print(summarize_report(_read_report(args.report_file)))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        # for `report diff`, 1 means that the reports differ
        return 2 if code == 1 and argv[:2] == ["report", "diff"] else code
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "demo":
            return _cmd_demo(args)
        return _cmd_report(args)
    except ScenarioError as exc:
        sys.stderr.write(f"qdata: {exc}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
