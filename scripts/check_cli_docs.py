#!/usr/bin/env python3
"""Cross-checks the CLI <-> docs contract: every flag the `whoiscrf`
binary's per-command --help tables emit must be mentioned (as `--flag`)
somewhere in README.md or docs/*.md — a flag nobody documented is a flag
nobody will find. Run from anywhere:

    python3 scripts/check_cli_docs.py [repo_root]            # source mode
    python3 scripts/check_cli_docs.py --binary PATH [root]   # binary mode

Source mode parses src/cli/help.cc (the single source of truth the binary
prints), so the lint CI job can run it without building. Binary mode runs
`PATH <command> --help` for every command and parses the live output; it
is wired into CTest as `cli_docs_check`, so the two modes cross-check each
other: help.cc drift fails lint, and a flag added to the binary without a
help entry never reaches either mode — which is exactly why RunCommand
routes --help through CommandHelp() rather than a second table.

The flag check is one-directional on purpose: docs may mention flags in
prose that discuss removed or hypothetical options, but every *real* flag
must be documented.

Both modes also check environment knobs, in both directions: the set of
WHOISCRF_* names that src/ and bench/ read (through getenv or the
util::Env* helpers) must equal the rows of README.md's "Environment knobs"
table. A knob nobody documented is never found, and a row for a knob the
code no longer reads sends people after a dead switch. Names read only by
tests/ are not knobs and are not scanned.
"""
import pathlib
import re
import subprocess
import sys

# A flag line in a help table: two spaces, the flag, optional metavar.
HELP_FLAG = re.compile(r"^\s{2}(--[A-Za-z0-9-]+)", re.MULTILINE)
# Commands registered in help.cc:  add("gen", kGenHelp);
# (names may be hyphenated, e.g. "shard-router")
HELP_ADD = re.compile(r'add\("([a-z][a-z-]*)",\s*k\w+Help\)')
# An environment read: std::getenv("WHOISCRF_X") or util::EnvInt("WHOISCRF_X",
# ...) and the other util::Env* helpers.
ENV_READ = re.compile(r'(?:\bgetenv|\bEnv\w*)\(\s*"(WHOISCRF_[A-Z0-9_]+)"')
# A row of README's knob table: | `WHOISCRF_X=...` | effect |
ENV_ROW = re.compile(r"^\|\s*`(WHOISCRF_[A-Z0-9_]+)", re.MULTILINE)


def flags_from_source(root: pathlib.Path) -> dict:
    source = (root / "src" / "cli" / "help.cc").read_text()
    commands = HELP_ADD.findall(source)
    if not commands:
        raise RuntimeError("no add(\"<cmd>\", k...Help) lines in help.cc")
    # Source mode cannot easily split per command, and does not need to:
    # the contract is flag -> documented, so attribute every flag found in
    # any help table (including kGlobalFlags) to the file as a whole.
    return {"help.cc": sorted(set(HELP_FLAG.findall(source)))}


def flags_from_binary(binary: str, root: pathlib.Path) -> dict:
    source = (root / "src" / "cli" / "help.cc").read_text()
    commands = HELP_ADD.findall(source)
    out: dict = {}
    for command in commands:
        proc = subprocess.run(
            [binary, command, "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"`{binary} {command} --help` exited {proc.returncode}: "
                f"{proc.stderr.strip()}"
            )
        flags = sorted(set(HELP_FLAG.findall(proc.stdout)))
        if not flags:
            raise RuntimeError(
                f"`{binary} {command} --help` printed no flag table"
            )
        out[command] = flags
    return out


def documented_flags(root: pathlib.Path) -> set:
    mentioned: set = set()
    paths = [root / "README.md"]
    paths.extend(sorted((root / "docs").glob("*.md")))
    for path in paths:
        mentioned.update(
            re.findall(r"--[A-Za-z0-9-]+", path.read_text())
        )
    return mentioned


def env_knobs_read(root: pathlib.Path) -> set:
    names: set = set()
    for top in ("src", "bench"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix in (".cc", ".h"):
                names.update(ENV_READ.findall(path.read_text()))
    return names


def env_knobs_documented(root: pathlib.Path) -> set:
    readme = (root / "README.md").read_text()
    match = re.search(r"^## Environment knobs\n(.*?)(?=^## )", readme,
                      re.MULTILINE | re.DOTALL)
    if match is None:
        raise RuntimeError("README.md has no '## Environment knobs' section")
    return set(ENV_ROW.findall(match.group(1)))


def check_env_knobs(root: pathlib.Path) -> int:
    read = env_knobs_read(root)
    documented = env_knobs_documented(root)
    failed = 0
    for name in sorted(read - documented):
        print(f"  env knob {name} is read in src/ or bench/ but has no row "
              "in README.md's Environment knobs table", file=sys.stderr)
        failed = 1
    for name in sorted(documented - read):
        print(f"  README.md's Environment knobs table lists {name}, which "
              "nothing in src/ or bench/ reads", file=sys.stderr)
        failed = 1
    if not failed:
        print(f"ok: {len(read)} env knobs read in src/ and bench/, each "
              "with exactly one README row")
    return failed


def main(argv: list) -> int:
    args = argv[1:]
    binary = None
    if "--binary" in args:
        i = args.index("--binary")
        binary = args[i + 1]
        del args[i : i + 2]
    root = pathlib.Path(args[0] if args else ".").resolve()

    if binary is not None:
        per_command = flags_from_binary(binary, root)
    else:
        per_command = flags_from_source(root)
    documented = documented_flags(root)

    missing: list = []
    total = 0
    for command, flags in sorted(per_command.items()):
        total += len(flags)
        for flag in flags:
            if flag not in documented:
                missing.append((command, flag))

    env_failed = check_env_knobs(root)
    if missing:
        print(
            "CLI flags emitted by --help but mentioned nowhere in "
            "README.md or docs/*.md:",
            file=sys.stderr,
        )
        for command, flag in missing:
            print(f"  [{command}] {flag}", file=sys.stderr)
        return 1
    if env_failed:
        return 1
    mode = "binary" if binary is not None else "source"
    print(
        f"ok: {total} help-table flags across {len(per_command)} "
        f"{'commands' if binary else 'file(s)'} all documented "
        f"({mode} mode)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
