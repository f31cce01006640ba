"""``main`` builds only the parser of the command it runs.

``build_parser(command)`` adds that one subcommand's parser where
``build_parser()`` adds all of them.  For a known command the two must
print the same help, usage and errors and parse the same namespace;
``--help``, ``--version``, no command and an unknown command still go
through the full parser.
"""

import argparse

import pytest

from repro import __version__, cli
from repro.cli import build_parser, main


def _subparsers(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _command_paths(parser, prefix=()):
    """Every subcommand path of *parser*: ``("fleet",)``, ``("fleet",
    "worker")``, ..."""
    paths = []
    for name, subparser in _subparsers(parser).items():
        path = prefix + (name,)
        paths.append(path)
        if any(isinstance(a, argparse._SubParsersAction) for a in subparser._actions):
            paths.extend(_command_paths(subparser, path))
    return paths


def _walk(parser, path):
    for name in path:
        parser = _subparsers(parser)[name]
    return parser


def _outcome(call, capsys):
    """Exit code, stdout and stderr of a parse that may exit."""
    capsys.readouterr()
    try:
        call()
        code = None
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMAND_PATHS = _command_paths(build_parser())

#: The CLI invocations of CI's smoke steps (file arguments need not
#: exist: parsing does not open them).
CI_ARGVS = [
    "example burns -o burns.json",
    "analyze burns.json --test all-approx",
    "analyze burns.json --test superpos --level 3",
    "analyze burns.json --all --jobs 2",
    "bounds burns.json",
    "analyze burns.json --test dynamic --cache-stats",
    "analyze burns.json --test devi",
    "analyze burns.json --test qpa",
    "partition burns.json --cores 2 --heuristic ffd --admission approx-dbf",
    "partition burns.json --min-cores --verify both --cache-stats",
    "partition burns.json --cores 2 --admission exact-dbf -o burns_sys.json",
    "partition burns_sys.json --verify simulation",
    "analyze burns.json --test partitioned-edf --cores 2",
    "trace --scenario churn --events 40 --seed 7 -o trace.json",
    "replay trace.json --oracle",
    "generate --tasks 300 --utilization 0.7 --seed 5 -o base300.json",
    "trace --scenario churn --events 200 --utilization 0.25 --seed 8 -o churn200.json",
    "replay churn200.json --base base300.json --oracle",
    "replay churn200.json --base base300.json",
    "replay trace.json --cores 2 --heuristic wf",
    "admit burns.json --task 1 12 25",
    "serve --port 8787 --store ci-store.sqlite --span-journal ci-spans.jsonl",
    "submit burns.json --url http://127.0.0.1:8787 --test qpa",
    "status --url http://127.0.0.1:8787",
    "obs metrics --url http://127.0.0.1:8787",
    "obs events --url http://127.0.0.1:8787",
    "obs trace 0123456789abcdef0123456789abcdef --url http://127.0.0.1:8787",
    "example ma_shin -o ma_shin.json",
    "submit burns.json ma_shin.json --url http://127.0.0.1:8787 "
    "--test processor-demand --profile",
    "fleet coordinate --port 8797 --store fleet-store.sqlite "
    "--heartbeat-interval 0.5 --miss-budget 3 --scrape-interval 0.5 "
    "--span-journal fleet-spans.jsonl",
    "fleet worker --coordinator http://127.0.0.1:8797 --id ci-w1 "
    "--heartbeat-interval 0.5",
    "fleet workers --url http://127.0.0.1:8797",
    "generate --tasks 40 --utilization 0.97 --seed 1 -o sets/set1.json",
    "submit sets/set1.json sets/set2.json --url http://127.0.0.1:8797 "
    "--test dynamic --no-wait",
    "status 0123456789ab --url http://127.0.0.1:8797",
    "fetch 0123456789ab --url http://127.0.0.1:8797",
    "submit sets/set1.json --url http://127.0.0.1:8797 --test dynamic",
    "obs trace 0123456789abcdef0123456789abcdef --url http://127.0.0.1:8797",
    "fleet status --url http://127.0.0.1:8797",
    "obs fleet-metrics --url http://127.0.0.1:8797",
    "obs fleet-events --url http://127.0.0.1:8797 --limit 5",
]


def test_the_one_command_table_is_the_full_parsers():
    assert list(_subparsers(build_parser())) == list(cli._COMMANDS)
    for command in cli._COMMANDS:
        assert list(_subparsers(build_parser(command))) == [command]


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
def test_help_matches_the_full_parser(path):
    full = _walk(build_parser(), path).format_help()
    assert _walk(build_parser(path[0]), path).format_help() == full


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_usage_names_every_command(command):
    assert build_parser(command).format_usage() == build_parser().format_usage()


@pytest.mark.parametrize("argv", CI_ARGVS)
def test_ci_invocations_parse_alike(argv):
    argv = argv.split()
    one = build_parser(argv[0]).parse_args(argv)
    assert vars(one) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["analyze", "burns.json", "--test", "bogus"],
        ["analyze", "burns.json", "--bogus"],
        ["analyze", "burns.json", "--version"],
        ["analyze", "--help"],
        ["partition", "burns.json", "--heuristic", "bogus"],
        ["trace", "--scenario", "bogus", "--events", "4"],
        ["fleet"],
        ["fleet", "worker", "--help"],
        ["obs", "bogus"],
    ],
    ids=" ".join,
)
def test_a_known_command_exits_as_the_full_parser_does(argv, capsys):
    got = _outcome(lambda: main(argv), capsys)
    assert got == _outcome(lambda: build_parser().parse_args(argv), capsys)
    assert got[0] in (0, 2)


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["--version"], [], ["bogus"]], ids=repr
)
def test_other_argvs_take_the_full_parser(argv, capsys):
    got = _outcome(lambda: main(argv), capsys)
    assert got == _outcome(lambda: build_parser().parse_args(argv), capsys)
    code, out, err = got
    if argv in (["--help"], ["-h"]):
        assert (code, err) == (0, "")
        for command in cli._COMMANDS:
            assert command in out
    elif argv == ["--version"]:
        assert (code, out, err) == (0, f"repro {__version__}\n", "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith(build_parser().format_usage())
        assert "argument command" in err or "required: command" in err
