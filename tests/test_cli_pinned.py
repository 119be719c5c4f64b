"""Byte-identity pins for the CLI surface.

Every command's stdout (JSON and table form) and the whole parser tree --
subcommand paths, option strings, defaults, choices, nargs -- are hashed
and compared with values recorded before the command table was
restructured.  A refactor of ``repro.cli`` must leave all of them alone;
a deliberate change to a command's output or flags updates the pin in
the same commit and says why.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

DATA = Path(__file__).parent / "workloads" / "data"

# name -> (argv, sha256 of the table form, sha256 of the --json form).
# ``None`` marks a command without a --json flag.
PINNED = {
    "figure": (
        ["figure", "fig13", "--requests", "60", "--workloads", "hm_0"],
        "19a08e9057ecd3e83d316e14e526552872445f3015794e2f8f8abd3fa7a6a6de",
        "19a08e9057ecd3e83d316e14e526552872445f3015794e2f8f8abd3fa7a6a6de",
    ),
    "matrix": (
        ["matrix", "--figures", "fig9a", "fig13", "table4",
         "--requests", "40", "--workloads", "proj_3"],
        "67dedb1ebd878c4d7d999c0feaab35f3b3c7619d6b3f702555bc8629f4fe4440",
        "3cfc9928f058ffe6888564d010c8377b90af681509bc24d246c5af70cb9cdd3c",
    ),
    "faults-sweep": (
        ["faults", "sweep", "--requests", "40", "--link-counts", "0", "2"],
        "dd13a08ca3e4f48a17ff8055e71ebd9a37baa763fb8e80d8f3cc488340de7aa7",
        "41fab401b29aaf5c5bdc28b1abff2b4c65776e233be0563406d4f8844f3a4ecb",
    ),
    "ftl-sweep": (
        ["ftl", "sweep", "--requests", "60", "--fills", "0.5",
         "--op", "0.07", "--fill", "0.5"],
        "d005fc10019870101268357cf74a91edb88ca3cdb6586fe72878217b5170434e",
        "cffbccff84748af79f0ac0240da14a1f5bf2b8ed06fb4b855048f084de7ab9e8",
    ),
    "qos-sweep": (
        ["qos", "sweep", "--requests", "60", "--designs", "venice",
         "--placements", "round-robin", "--levels", "1", "4",
         "--policies", "none", "token-bucket:1e6,16"],
        "03c72d23c61571740a0112e9ac26fdfd2be74f9c69b34878459398093eab6b27",
        "7ff04b221bd71e981fc105e31846bdddb9c9f0136cac64e9a809fd5da4440cf5",
    ),
    "fleet-run": (
        ["fleet", "run", "--devices", "2", "--tenants", "4",
         "--requests", "60"],
        "30c78bb8294191c56fc50e95ff612e472f8e25d2de92ed86f7a93f30b5333f1b",
        "6d27fbb0585da66f5e3a7fb502d6ba8491d83b025dbfb1909286f611abd55988",
    ),
    "fleet-sweep": (
        ["fleet", "sweep", "--devices", "1", "2", "--tenants", "4",
         "--requests", "48"],
        "2400542d3fe12bc2802e5c9a172e642e233b94ae661a0e80e448a2071c0388fd",
        "a16891a82d7dd17336df5db72bafdc94108e925add934841d0fd7901c447158c",
    ),
    "compare": (
        ["compare", "--workload", "proj_3", "--requests", "40"],
        "506868695b589e5ea6cfaa720ab527fc3897ef547a14bdf264d1aa686560e06c",
        None,
    ),
    "trace-inspect": (
        ["trace", "inspect", "msr_tiny.csv"],
        "240586da07a89e94f460ccf44a84eb80e408a84a1005b83f23082cf0f44c3d50",
        "fbeecea2276dd49c43d422938d0926f80e07be1c18c347c6ac1d95c89103a5ae",
    ),
    "trace-replay": (
        ["trace", "replay", "msr_tiny.csv", "--requests", "24"],
        "5c58b18f5b9ade8b00d6616f24059b3a0216d02e04d7ee029ce14bcebc726148",
        "3c713ef96232a2832c07a61a3b14f1585720462b3f30e3076748e40ddd49bed6",
    ),
    "list": (
        ["list"],
        "1bbdc43990fe9c70dff1d37b08276cebf94e2944c9f01c64b3874c8f2ecdfd47",
        "6fceb5c80118d1160ba36abe74fdc0b22f0bfd2d6b7580da7b8925c110c8ae38",
    ),
}

PARSER_TREE_SHA = "39d1bf9f42a48397615d60b4d2a6358bb8a018e6c75915b92f3d56f031b15824"


def _stdout_sha(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_command_stdout_is_pinned(name, monkeypatch, capsys):
    # Run from the fixture directory so ``trace inspect`` echoes a
    # checkout-independent relative path.
    monkeypatch.chdir(DATA)
    argv, table_sha, json_sha = PINNED[name]
    assert _stdout_sha(argv, capsys) == table_sha
    if json_sha is not None:
        assert _stdout_sha(argv + ["--json"], capsys) == json_sha


def _leaves(parser, path=()):
    """Yield ``(subcommand path, parser)`` for every leaf of the tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, path + (name,))
            return
    yield path, parser


def _dump(parser) -> list:
    return [
        [
            list(path),
            [
                [
                    action.option_strings or [action.dest],
                    action.default,
                    None if action.choices is None else list(action.choices),
                    action.nargs,
                ]
                for action in leaf._actions
            ],
        ]
        for path, leaf in _leaves(parser)
    ]


def test_parser_tree_is_pinned():
    text = json.dumps(_dump(_build_parser()), default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == PARSER_TREE_SHA


LEAVES = [path for path, _ in _leaves(_build_parser())]


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
def test_every_leaf_has_a_handler_and_help(path, capsys):
    leaf = dict(_leaves(_build_parser()))[path]
    assert callable(leaf.get_default("handler"))
    with pytest.raises(SystemExit) as exit_info:
        main(list(path) + ["--help"])
    assert exit_info.value.code == 0
    assert "usage: venice-sim " + " ".join(path) in capsys.readouterr().out
