"""The library tour of README.md runs as written, warnings included (they are errors here)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(tour, str(README), "exec"), {})


def readme_options() -> dict:
    """command -> {flag: its bracketed default, or None}, from README's per-command bullets.

    The lead sentence gives the options every command takes; "a handle" in a
    bullet stands for the flags the first bullet lists in its parentheses.
    """
    text = README.read_text()
    section = " ".join(
        text[text.index("Each command takes only the options"):text.index("A handle is a")].split()
    )
    lead, *bullets = section.split(" * ")
    flag_re = r"`(--[\w-]+)( [^`]*)?`(?: \[([^\]]*)\])?"
    handle = re.findall(flag_re, re.search(r"a handle \(([^)]*)\)", section).group(1))
    common = {flag: (metavar, default) for flag, metavar, default in re.findall(flag_re, lead)}
    options = {}
    for bullet in bullets:
        names, listed = bullet.split(": ", 1)
        flags = dict(common)
        for flag, metavar, default in re.findall(flag_re, listed) + (
            handle if "a handle" in listed else []
        ):
            flags[flag] = (metavar, default)
        for name in re.findall(r"`(\w+)`", names):
            options[name] = flags
    return options


def parser_options() -> dict:
    """command -> {flag: its argparse action}, from ``cli.build_parser()``."""
    import argparse

    from ncjulia import cli

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.option_strings[-1]: a for a in command._actions if a.dest != "help"}
        for name, command in sub.choices.items()
    }


def test_readme_options_match_the_parser():
    documented, parsed = readme_options(), parser_options()
    assert sorted(documented) == sorted(parsed)
    for name, actions in parsed.items():
        flags = documented[name]
        assert sorted(flags) == sorted(actions), name
        for flag, (metavar, default) in flags.items():
            action = actions[flag]
            if metavar:  # a listed value set: `--output json|text`
                assert metavar.strip() == "|".join(action.choices), (name, flag)
            if not default:  # no bracket: no default value
                assert action.default in (None, False), (name, flag, action.default)
            elif isinstance(action.default, str):
                assert default == action.default, (name, flag, action.default)
            else:
                assert type(action.default)(default) == action.default, (name, flag, default)
