import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncjulia import get_delta, get_fixture, random_realization, realization_to_json
from ncjulia.cli import main, render_json

from conftest import solve_budget


_SCALAR = {"rows": 1, "cols": 1, "data": [[0.5, 0]]}


def _poly(coeff, word):
    return {"d": 2, "terms": [{"coeff": c, "word": word} for c in coeff]}


_H1_REALIZATION = realization_to_json(get_fixture("example-h1").realization)


def looped_fuzz(delta_name, dim_e, seed, samples, no_isometry):
    """The per-sample model residuals and the JSON of ``ncjulia fuzz`` at default tolerances.

    The oracle of the stacked fuzz: a loop that builds each sample's
    colligation with ``random_realization`` (and ``perturb_realization``),
    scales its point with the sequential sampler and takes
    ``model_residual(h, x, x)``, drawing from the generator in the order
    ``fuzz`` draws, Julia sub-sweeps included.
    """
    from ncjulia import (
        MatrixTuple, NcFunctionHandle, boundary_point, estimate_alpha, evaluate_sequence,
        extract_W, get_delta, haar_unitary, julia_sweep, model_residual, perturb_realization,
    )
    from ncjulia.domain import SEQUENCE_FIRST_STEP
    from conftest import sequential_interior_sample

    delta = get_delta(delta_name)
    rng = np.random.default_rng(seed)
    residuals, julia = [], {"checked": 0, "violations": 0, "skipped": 0}
    for k in range(samples):
        r = random_realization(dim_e, delta.J, seed + k)
        if no_isometry:
            r = perturb_realization(r, 0.05, seed + k)
        h = NcFunctionHandle(r, delta)
        n = int(rng.integers(1, 3))
        x = sequential_interior_sample(delta, n, rng)[0]
        residuals.append(model_residual(h, x, x))
        if not (delta_name.startswith("polydisk") and k % 10 == 0):
            continue
        t = MatrixTuple(tuple(haar_unitary(n, rng) for _ in range(delta.d)))
        try:
            path = evaluate_sequence(h, t, None, 18, SEQUENCE_FIRST_STEP)
            alpha, w = estimate_alpha(path), extract_W(path).W
        except ValueError:
            continue
        if alpha.converged:
            sweep = julia_sweep(h, rng, 5, boundary_point(delta, t), w, alpha.alpha)
            julia = {key: value + getattr(sweep, key) for key, value in julia.items()}
    violations = sum(res > 1e-9 for res in residuals)
    out = {
        "samples": samples,
        "seed": seed,
        "dim_E": dim_e,
        "J": delta.J,
        "model_identity": {
            "checked": samples,
            "violations": violations,
            "max_residual": max([0.0, *residuals]),
            "tolerance": 1e-9,
        },
        "julia_inequality": julia,
    }
    return residuals, out


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "interior": write_json(tmp_path / "pt.json", {"scalars": [[0.5, 0], [0.3, 0]]}),
        "boundary": write_json(tmp_path / "T.json", {"scalars": [[1, 0], [1, 0]]}),
        "mixed": write_json(tmp_path / "Tmix.json", {"scalars": [[1, 0], [-1, 0]]}),
        "edge": write_json(tmp_path / "edge.json", {"scalars": [[1, 0], [0, 0]]}),
        "inward": write_json(tmp_path / "H.json", {"scalars": [[-1, 0], [-1, 0]]}),
        "tangent": write_json(tmp_path / "Ht.json", {"scalars": [[0, 1], [0, 1]]}),
        "ball": write_json(tmp_path / "Tball.json", {"scalars": [[0.6, 0], [0.8, 0]]}),
        "malformed": str((tmp_path / "broken.json").write_text("{oops") or tmp_path / "broken.json"),
        "tmp": tmp_path,
    }


GOLDEN = Path(__file__).resolve().parent / "golden"
# golden file: (exit code, argv); "{name}" stands for the file of that name in ``files``
GOLDEN_RUNS = {
    "bpoint-h1-radial.json": (0, ["bpoint", "--fixture", "example-h1", "--point", "{boundary}"]),
    "bpoint-h1-radial.txt": (
        0, ["bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--output", "text"]
    ),
    "bpoint-h1-ray.json": (
        0, ["bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--ray", "{inward}"]
    ),
    "bpoint-h1-ray.txt": (
        0,
        [
            "bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--ray", "{inward}",
            "--output", "text",
        ],
    ),
    # the quotient diverges at a boundary point of the ball: not a B-point
    "bpoint-ball2.json": (
        1, ["bpoint", "--delta", "ball:2", "--fixture", "example-h1", "--point", "{ball}"]
    ),
    "derivative-h3-eta.json": (
        0,
        [
            "derivative", "--fixture", "example-h1", "--point", "{boundary}",
            "--direction", "{inward}", "--closed-form", "example-h3-eta",
        ],
    ),
    "eval-h1.json": (0, ["eval", "--fixture", "example-h1", "--point", "{interior}"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_stdout(name, files, capsys):
    code, argv = GOLDEN_RUNS[name]
    assert main([arg.format(**files) for arg in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "--fixture", "example-h1", "--point", "{big}"], 0),
        (["bpoint", "--delta", "ball:2", "--fixture", "example-h1", "--point", "{ball}"], 1),
    ],
)
def test_reader_closing_stdout_early_changes_no_exit_code(files, argv, code):
    import ncjulia

    # n = 16: the eval output is larger than the stdout buffer
    big = {"components": [{"rows": 16, "cols": 16, "data": [[0.0, 0.0]] * 256}] * 2}
    files = {**files, "big": write_json(files["tmp"] / "P.json", big)}
    argv = [arg.format(**files) for arg in argv]
    src = str(Path(ncjulia.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncjulia.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")


class TestEval:
    def test_fixture_point(self, files, capsys):
        assert main(["eval", "--fixture", "example-h1", "--point", files["interior"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi"]["data"][0][0] == pytest.approx(5.0 / 12.0, abs=1e-12)
        assert out["model_residual"] <= 1e-12
        assert out["delta_norm"] == pytest.approx(0.5)

    def test_boundary_point_is_precondition_error(self, files):
        assert main(["eval", "--fixture", "example-h1", "--point", files["edge"]]) == 3

    def test_malformed_json(self, files):
        assert main(["eval", "--fixture", "example-h1", "--point", files["malformed"]]) == 2

    def test_unknown_fixture(self, files, capsys):
        assert main(["eval", "--fixture", "nope", "--point", files["interior"]]) == 2
        assert "unknown fixture 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, unknown", [
        (["eval", "--delta", "polydisk:2", "--realization", "MISSING"], "fixture"),
        (["eval", "--realization", "example-h1", "--delta", "MISSING"], "delta"),
        (["eval", "--fixture", "MISSING"], "fixture"),
        (["bpoint", "--fixture", "example-h1", "--delta", "MISSING"], "delta"),
        (["fuzz", "--delta", "MISSING"], "delta"),
    ])
    def test_missing_file_says_no_file_and_unknown_name(self, files, capsys, argv, unknown):
        # a value that is neither an existing file nor a known name: both are said
        missing = str(files["tmp"] / "missing.json")
        argv = [missing if a == "MISSING" else a for a in argv]
        if argv[0] != "fuzz":
            argv += ["--point", files["interior"]]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"no file {missing!r}, and unknown {unknown} {missing!r}" in err

    @pytest.mark.parametrize("delta, message", [
        ("polydisk:99", "delta size in 'polydisk:99' exceeds the maximum"),
        ("polydisk:x", "malformed delta size in 'polydisk:x'"),
    ])
    def test_known_family_with_a_bad_size_says_only_that(self, files, capsys, delta, message):
        # a known family name is no missing file: its own error is said alone
        for argv in (
            ["eval", "--realization", "example-h1", "--delta", delta, "--point", files["interior"]],
            ["fuzz", "--delta", delta],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert message in err and "no file" not in err

    @pytest.mark.parametrize("flags, pair", [
        (["--fixture", "F"], ["--delta", "F", "--realization", "F"]),
        (["--fixture", "F", "--delta", "D"], ["--delta", "D", "--realization", "F"]),
        (["--fixture", "F", "--realization", "R"], ["--delta", "F", "--realization", "R"]),
        (
            ["--fixture", "F", "--delta", "D", "--realization", "R"],
            ["--delta", "D", "--realization", "R"],
        ),
    ])
    def test_fixture_fills_the_absent_handle_flag(self, files, capsys, flags, pair):
        colligation = realization_to_json(random_realization(1, 2, 5))
        names = {
            "F": "example-h1",
            "D": "ball:2",
            "R": write_json(files["tmp"] / "colligation.json", colligation),
        }
        runs = []
        for argv in (flags, pair):
            code = main(["eval", *(names.get(a, a) for a in argv), "--point", files["interior"]])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_named_delta_and_realization(self, files, capsys):
        code = main([
            "eval", "--delta", "polydisk:2", "--realization", "example-h1",
            "--point", files["interior"],
        ])
        assert code == 0

    def test_delta_file_with_parse_errors(self, files):
        # the last two exceed the parser's degree and term caps
        for bad_entry in ("x5", "x0 + * x1", "x0^-1", "x0^2000", "(x0+x1)^16"):
            path = write_json(
                files["tmp"] / "delta.json",
                {"d": 2, "entries": [[bad_entry, "0"], ["0", "x1"]]},
            )
            code = main([
                "eval", "--delta", path, "--realization", "example-h1",
                "--point", files["interior"],
            ])
            assert code == 2

    def test_deeply_nested_delta_entry(self, files):
        path = write_json(
            files["tmp"] / "deep.json", {"d": 1, "entries": [["(" * 5000 + "x0" + ")" * 5000]]}
        )
        code = main([
            "eval", "--delta", path, "--realization", "trivial-disk",
            "--point", write_json(files["tmp"] / "x.json", {"scalars": [[0.5, 0]]}),
        ])
        assert code == 2

    def test_text_output(self, files, capsys):
        assert main([
            "eval", "--fixture", "example-h1", "--point", files["interior"],
            "--output", "text",
        ]) == 0
        out = capsys.readouterr().out
        assert "delta_norm = 0.5" in out

    def test_realization_file_round_trip(self, files, capsys):
        from ncjulia import example_h1_realization, realization_to_json

        path = write_json(
            files["tmp"] / "real.json", realization_to_json(example_h1_realization())
        )
        code = main([
            "eval", "--delta", "polydisk:2", "--realization", path,
            "--point", files["interior"],
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi"]["data"][0][0] == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_non_isometric_realization_file_rejected(self, files):
        from ncjulia import example_h1_realization, perturb_realization, realization_to_json

        broken = perturb_realization(example_h1_realization(), eps=0.1, seed=0)
        path = write_json(files["tmp"] / "broken_real.json", realization_to_json(broken))
        args = [
            "eval", "--delta", "polydisk:2", "--realization", path,
            "--point", files["interior"],
        ]
        assert main(args) == 3
        # a loose tolerance lets the same file through
        assert main(args + ["--isometry-tol", "1.0"]) == 0


class TestBpoint:
    def test_diagonal_boundary_point(self, files, capsys):
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["boundary"],
            "--samples", "20",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_bpoint"] is True
        assert out["alpha"]["alpha"] == pytest.approx(1.0, abs=1e-8)
        assert out["W"]["data"][0][0] == pytest.approx(1.0, abs=1e-8)
        assert out["u_T_norm_sq"] == pytest.approx(1.0, abs=1e-10)
        assert out["julia"]["violations"] == 0
        assert list(out) == [
            "T", "delta_norm_at_T", "on_distinguished_boundary", "sequence", "alpha",
            "is_bpoint", "conditional", "julia", "W", "W_unitary_distance", "W_error",
            "u_T", "u_T_norm_sq", "range_residual", "kernel_orthogonality", "kernel_defect",
            "boundary_identity_max_residual", "inward_witness", "tfae",
        ]

    def test_mixed_boundary_point(self, files, capsys):
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["mixed"],
            "--samples", "5",
        ])
        assert code == 0
        capsys.readouterr()
        # (1, 0) is on the boundary but off the distinguished boundary: no
        # model vector, range test or boundedness report
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["edge"],
            "--samples", "5",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["on_distinguished_boundary"] is False
        assert out["conditional"] is False
        for key in (
            "u_T", "range_residual", "kernel_orthogonality", "kernel_defect",
            "boundary_identity_max_residual",
        ):
            assert out[key] is None
        for key in ("u_T_norm_sq", "inward_witness", "tfae"):
            assert key not in out

    def test_interior_point_rejected(self, files):
        assert main([
            "bpoint", "--fixture", "example-h1", "--point", files["interior"],
        ]) == 3

    def test_ray_rule(self, files):
        code = main([
            "bpoint", "--fixture", "example-h1", "--point", files["boundary"],
            "--ray", files["inward"], "--samples", "5",
        ])
        assert code == 0

    def test_false_verdict_exits_one(self, files, capsys):
        # colligation with the right-hand side outside the boundary range:
        # loaded with a loose isometry tolerance, verdict must be false
        blocks = {
            "dim_E": 1, "J": 1,
            "A": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
            "B": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]},
            "C": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
            "D": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
        }
        real = write_json(files["tmp"] / "inconsistent.json", blocks)
        t1 = write_json(files["tmp"] / "t1.json", {"scalars": [[1.0, 0.0]]})
        code = main([
            "bpoint", "--delta", "polydisk:1", "--realization", real,
            "--point", t1, "--samples", "5", "--isometry-tol", "10",
        ])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["is_bpoint"] is False
        assert out["alpha"]["diverging"] is True
        assert out["W"] is None and out["W_unitary_distance"] is None
        assert isinstance(out["W_error"], str)

    def test_singular_model_system_exits_three(self, files, capsys):
        # A = 0, B = C = 1, D = 2 is far from contractive: 1 - 2x vanishes at x = 0.5,
        # and on the radial path to T = 1 at the step 0.5
        blocks = {"dim_E": 1, "J": 1, "A": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]}}
        for name, value in (("B", 1.0), ("C", 1.0), ("D", 2.0)):
            blocks[name] = {"rows": 1, "cols": 1, "data": [[value, 0.0]]}
        real = write_json(files["tmp"] / "singular.json", blocks)
        x = write_json(files["tmp"] / "x.json", {"scalars": [[0.5, 0.0]]})
        t1 = write_json(files["tmp"] / "t1.json", {"scalars": [[1.0, 0.0]]})
        for command, point in (("eval", x), ("bpoint", t1)):
            argv = [
                command, "--delta", "polydisk:1", "--realization", real, "--point", point,
                "--isometry-tol", "10",
            ]
            assert main(argv) == 3, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: model system is singular at the evaluation point\n"

    def test_defaults_are_the_library_defaults(self, files, capsys):
        import inspect

        from ncjulia import analyze_bpoint, boundary, get_fixture, tuple_from_json
        from ncjulia.cli import _OPTIONS, _jsonable_report

        assert main(["bpoint", "--fixture", "example-h1", "--point", files["boundary"]]) == 0
        with open(files["boundary"]) as fh:
            t = tuple_from_json(json.load(fh))
        # one default seed, boundary.SEED, serves the CLI and the library
        assert _OPTIONS["--seed"]["default"] == boundary.SEED
        assert inspect.signature(analyze_bpoint).parameters["seed"].default == boundary.SEED
        report = analyze_bpoint(get_fixture("example-h1").handle, t)
        assert capsys.readouterr().out == render_json(_jsonable_report(report)) + "\n"


class TestFuzz:
    def test_clean_run(self, capsys):
        assert main(["fuzz", "--samples", "30", "--seed", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model_identity"]["violations"] == 0
        assert out["julia_inequality"]["violations"] == 0

    def test_negative_control(self, capsys):
        assert main(["fuzz", "--samples", "10", "--seed", "7", "--no-isometry"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["model_identity"]["violations"] > 0

    def test_seed_determinism(self, capsys):
        main(["fuzz", "--samples", "15", "--seed", "123"])
        first = capsys.readouterr().out
        main(["fuzz", "--samples", "15", "--seed", "123"])
        second = capsys.readouterr().out
        assert first == second

    def test_environment_does_not_set_the_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("NCJULIA_SEED", raising=False)
        main(["fuzz", "--samples", "15", "--seed", "999"])
        unset = capsys.readouterr().out
        monkeypatch.setenv("NCJULIA_SEED", "1")
        main(["fuzz", "--samples", "15", "--seed", "999"])
        assert capsys.readouterr().out == unset
        assert json.loads(unset)["seed"] == 999

    def test_sub_sweep_of_an_unconverged_alpha_is_skipped(self, capsys, monkeypatch):
        from dataclasses import replace

        from ncjulia import boundary

        argv = ["fuzz", "--samples", "30", "--seed", "7"]
        assert main(argv) == 0
        converged = json.loads(capsys.readouterr().out)
        assert converged["julia_inequality"]["checked"] > 0
        estimate, sweep, sweeps = boundary.estimate_alpha, boundary.julia_sweep, []
        monkeypatch.setattr(
            boundary, "estimate_alpha", lambda path: replace(estimate(path), converged=False)
        )
        monkeypatch.setattr(boundary, "julia_sweep", lambda *a: sweeps.append(a) or sweep(*a))
        assert main(argv) == 0
        skipped = json.loads(capsys.readouterr().out)
        assert sweeps == []
        assert skipped["julia_inequality"] == {"checked": 0, "violations": 0, "skipped": 0}
        # a skipped sweep draws no points, so later samples differ; all are still checked
        assert skipped["model_identity"]["checked"] == 30

    def test_J_comes_from_delta(self, capsys):
        assert main(["fuzz", "--samples", "2", "--delta", "polydisk:3"]) == 0
        assert json.loads(capsys.readouterr().out)["J"] == 3
        # there is no --J option to contradict the delta
        assert main(["fuzz", "--J", "3", "--delta", "polydisk:3"]) == 2

    def test_pending_samples_flush_by_bytes(self, monkeypatch, capsys):
        from ncjulia import cli, domain

        argv = ["fuzz", "--samples", "25", "--seed", "5", "--dim-E", "2"]
        code = main(argv)
        unpatched = capsys.readouterr().out
        flushes = []
        original = cli._model_identity_defects

        def recorded(args, delta, samples):
            flushes.append([draft.shape[-1] for _, draft in samples])
            return original(args, delta, samples)

        monkeypatch.setattr(cli, "_model_identity_defects", recorded)
        # dim_E 2 on polydisk:2: a sample of size n has a draft of two n x n complex
        # matrices, 32 n^2 bytes, a padded Delta of 64 n^2 bytes, a 4n x 4n complex model
        # system and its step, 512 n^2 bytes, and a 4n x n right-hand side and u, 128 n^2
        # bytes (solve_budget's row); a size's samples are checked when they fill the
        # budget, or at the end
        for budget in (3 * 1024, 100):
            flushes.clear()
            monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
            assert main(argv) == code
            assert capsys.readouterr().out == unpatched
            assert sum(map(len, flushes)) == 25
            for n in (1, 2):
                # at least one sample
                rows = max(1, budget // solve_budget(get_delta("polydisk:2"), n, 1, dim_E=2))
                sizes = [len(block) for block in flushes if block[0] == n]
                assert sizes[:-1] == [rows] * (len(sizes) - 1) and 0 < sizes[-1] <= rows
            assert all(len(set(block)) == 1 for block in flushes)
        assert flushes == [[n] for block in flushes for n in block]

    def test_block_drafts_and_model_systems_fit_the_budget(self, files, monkeypatch, capsys):
        from ncjulia import cli, domain, realization

        # a one-entry grid over many variables: a sample's draft outweighs its model system
        path = write_json(files["tmp"] / "delta.json", {"d": 300, "entries": [["0.5*x0"]]})
        argv = ["fuzz", "--samples", "20", "--seed", "3", "--delta", path]
        code = main(argv)
        unpatched = capsys.readouterr().out
        drafts, systems = [], []
        defects, operators = cli._model_identity_defects, realization.model_operators

        def recorded(args, delta, samples):
            drafts.append((len(samples), sum(draft.nbytes for _, draft in samples)))
            return defects(args, delta, samples)

        def recorded_operators(r, big_delta, n):
            resolvent, rhs, step = operators(r, big_delta, n)
            systems.append(resolvent.nbytes)
            return resolvent, rhs, step

        monkeypatch.setattr(cli, "_model_identity_defects", recorded)
        monkeypatch.setattr(realization, "model_operators", recorded_operators)
        budget = 64 << 10
        monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
        assert main(argv) == code
        assert capsys.readouterr().out == unpatched
        # 16 (1 + 300) n^2 bytes a sample: blocks of three of size 2, of thirteen of size 1
        assert sum(rows for rows, _ in drafts) == 20 and len(systems) == len(drafts)
        assert max(rows for rows, _ in drafts) > 1
        assert all(
            nbytes + system <= budget for (_, nbytes), system in zip(drafts, systems, strict=True)
        )

    def test_every_flush_holds_one_matrix_size(self, monkeypatch, capsys):
        from ncjulia import cli, domain

        argv = ["fuzz", "--samples", "40", "--seed", "11"]
        code = main(argv)
        unpatched = capsys.readouterr().out
        flushes = []
        original = cli._model_identity_defects

        def recorded(args, delta, samples):
            flushes.append([(seed - 11, draft.shape[-1]) for seed, draft in samples])
            return original(args, delta, samples)

        monkeypatch.setattr(cli, "_model_identity_defects", recorded)
        # polydisk:2 with dim_E 1 has drafts of two n x n matrices, 2n x 2n padded Delta,
        # 2n x 2n model systems with their steps, and 2n x n right-hand sides and u: a budget
        # of three samples of size 2, which holds twelve of size 1
        budget = solve_budget(get_delta("polydisk:2"), 2, 3, dim_E=1)
        monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
        assert main(argv) == code
        assert capsys.readouterr().out == unpatched
        assert all(len({n for _, n in block}) == 1 for block in flushes)
        # the oracle: a size is checked when it fills its rows, the rest at the end
        sizes = dict(sample for block in flushes for sample in block)
        assert sorted(sizes) == list(range(40))
        pending, expected = {1: [], 2: []}, []
        for k in range(40):
            pending[sizes[k]].append((k, sizes[k]))
            if len(pending[sizes[k]]) == {1: 12, 2: 3}[sizes[k]]:
                expected.append(pending[sizes[k]])
                pending[sizes[k]] = []
        expected += [samples for samples in pending.values() if samples]
        assert flushes == expected

    @pytest.mark.parametrize("no_isometry", [False, True])
    @pytest.mark.parametrize("delta", ["polydisk:2", "ball:3", "cartan:2"])
    def test_stacked_model_identity_equals_looped_oracle(
        self, delta, no_isometry, monkeypatch, capsys
    ):
        from ncjulia import domain, fixtures, realization

        stacked, evaluated = [], []
        evaluate_stack, defects = realization.evaluate_stack, realization.identity_defect

        def recorded_evaluation(h, stack):
            ev = evaluate_stack(h, stack)
            if np.ndim(h.realization.A) == 3:
                evaluated.append((h.realization, ev))
            return ev

        def recorded(r, y, x):
            if np.ndim(r.A) == 3:
                # the stacked defects, at the stacked evaluation of the same colligations
                colligations, ev = evaluated[len(stacked)]
                assert r is colligations and y is x
                assert all(a is b for a, b in zip(x, (ev.phi, ev.u, ev.delta)))
                stacked.append(defects(r, y, x))
                return stacked[-1]
            return defects(r, y, x)

        monkeypatch.setattr(realization, "evaluate_stack", recorded_evaluation)
        monkeypatch.setattr(realization, "identity_defect", recorded)
        default = domain.BLOCK_BYTES
        for dim_e in (1, 2, 3):
            residuals, expected = looped_fuzz(delta, dim_e, 40 + dim_e, 25, no_isometry)
            argv = ["fuzz", "--samples", "25", "--seed", str(40 + dim_e), "--delta", delta]
            argv += ["--dim-E", str(dim_e)] + ["--no-isometry"] * no_isometry
            # one block per size at the default budget, then blocks of five samples of size 2:
            # drafts of d 2 x 2 matrices, padded Delta, the active columns of model systems
            # with their steps, right-hand sides and u, and on a column grid the padded copy
            # of Delta phi takes
            for budget in (default, solve_budget(fixtures.get_delta(delta), 2, 5, dim_E=dim_e)):
                stacked.clear(), evaluated.clear()
                monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
                code = main(argv)
                assert json.loads(capsys.readouterr().out) == expected
                assert code == (1 if no_isometry else 0)
                assert sorted(np.concatenate(stacked).tolist()) == sorted(residuals)
                assert len(evaluated) == len(stacked)
                assert len(stacked) > (2 if budget < default else 0)

    def test_realizations_only_for_julia_samples(self, monkeypatch, capsys):
        from ncjulia import cli, domain, realization

        built, stacked, solves, blocks = [], [], [], []
        post_init = realization.Realization.__post_init__
        solution = realization._model_solution
        defects = cli._model_identity_defects

        def counted_post_init(self, isometry_tol):
            (stacked if np.ndim(self.A) == 3 else built).append(self)
            post_init(self, isometry_tol)

        def counted_solution(r, big_delta, n):
            if np.ndim(r.A) == 3:
                solves.append((n, len(r.D)))
            return solution(r, big_delta, n)

        def recorded(args, delta, samples):
            blocks.append([draft.shape[-1] for _, draft in samples])
            return defects(args, delta, samples)

        monkeypatch.setattr(realization.Realization, "__post_init__", counted_post_init)
        monkeypatch.setattr(realization, "_model_solution", counted_solution)
        monkeypatch.setattr(cli, "_model_identity_defects", recorded)
        for argv, budget, realizations in (
            ([], domain.BLOCK_BYTES, 2),  # the Julia sub-sweeps of samples 0 and 10
            (["--no-isometry"], domain.BLOCK_BYTES, 4),  # and their perturbed colligations
            # blocks of at most three samples of size 2: drafts, padded Delta, model systems
            # and their steps, right-hand sides and u
            ([], solve_budget(get_delta("polydisk:2"), 2, 3, dim_E=1), 2),
        ):
            built.clear(), stacked.clear(), solves.clear(), blocks.clear()
            monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
            main(["fuzz", "--samples", "20", "--seed", "7", *argv])
            capsys.readouterr()
            assert len(built) == realizations
            # one stacked Realization per block, and its perturbed copy under --no-isometry
            assert len(stacked) == len(blocks) * (2 if argv else 1)
            # one stacked solve for each block, which holds samples of one matrix size
            assert all(len(set(block)) == 1 for block in blocks)
            assert solves == [(block[0], len(block)) for block in blocks]
            assert sum(map(len, blocks)) == 20 and (len(blocks) == 2) == (budget > 4096)

    @pytest.mark.parametrize("no_isometry", [False, True])
    def test_stacked_realization_split_across_solves(self, no_isometry, monkeypatch, capsys):
        from ncjulia import cli, domain, realization

        argv = ["fuzz", "--samples", "30", "--seed", "9", "--dim-E", "2"]
        argv += ["--no-isometry"] * no_isometry
        code = main(argv)
        unpatched = capsys.readouterr().out
        built, solves, flushes = [], [], []
        post_init, solution = realization.Realization.__post_init__, realization._model_solution
        defects, default = cli._model_identity_defects, domain.BLOCK_BYTES

        def split(args, delta, samples):
            # the block was flushed at the default budget; it is solved a third at a time
            # (and a remainder), a third of its samples' solve rows to a solve
            n, before = samples[0][1].shape[-1], len(solves)
            budget = solve_budget(delta, n, len(samples) // 3, dim_E=args.dim_E)
            monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
            result = defects(args, delta, samples)
            monkeypatch.setattr(domain, "BLOCK_BYTES", default)
            assert len(solves) - before >= 3 and sum(solves[before:]) == len(samples)
            flushes.append(len(samples))
            return result

        def counted_solution(r, big_delta, n):
            if np.ndim(r.A) == 3:
                solves.append(len(r.D))
            return solution(r, big_delta, n)

        monkeypatch.setattr(cli, "_model_identity_defects", split)
        monkeypatch.setattr(realization, "_model_solution", counted_solution)
        monkeypatch.setattr(
            realization.Realization, "__post_init__",
            lambda self, tol: built.append(self) or post_init(self, tol),
        )
        assert main(argv) == code
        assert capsys.readouterr().out == unpatched
        # one stacked Realization per flush, and its perturbed copy under --no-isometry:
        # slicing it into solves builds and checks none
        assert len(flushes) == 2 and sum(flushes) == 30
        assert sum(np.ndim(r.A) == 3 for r in built) == 2 * (1 + no_isometry)

    def test_one_sequence_per_julia_sub_sweep(self, monkeypatch, capsys):
        from ncjulia import boundary

        calls = []
        original = boundary.generate_sequence
        monkeypatch.setattr(
            boundary, "generate_sequence", lambda *a, **kw: calls.append(a) or original(*a, **kw)
        )
        # one sample: the Julia sub-sweep runs at sample 0 only
        assert main(["fuzz", "--samples", "1", "--seed", "7"]) == 0
        assert len(calls) == 1

    def test_delta_file_runs_like_its_name(self, files, capsys):
        from ncjulia import delta_to_json, polydisk_delta

        path = write_json(files["tmp"] / "polydisk.json", delta_to_json(polydisk_delta(2)))
        main(["fuzz", "--samples", "30", "--seed", "3", "--delta", "polydisk:2"])
        by_name = capsys.readouterr().out
        main(["fuzz", "--samples", "30", "--seed", "3", "--delta", path])
        by_file = capsys.readouterr().out
        assert json.loads(by_name)["julia_inequality"]["checked"] > 0
        assert by_file == by_name

    @pytest.mark.parametrize(
        "argv, dim_e, checked, max_residual",
        [
            # three Julia sub-sweeps of five samples each
            (["--delta", "polydisk:2"], 1, 15, 1.2263889032422858e-15),
            (["--delta", "cartan:2", "--dim-E", "2"], 2, 0, 9.9574492268740612e-16),
        ],
    )
    def test_golden_output(self, argv, dim_e, checked, max_residual, capsys):
        assert main(["fuzz", "--samples", "25", "--seed", "11", *argv]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "samples": 25,
            "seed": 11,
            "dim_E": dim_e,
            "J": 2,
            "model_identity": {
                "checked": 25,
                "violations": 0,
                "max_residual": max_residual,
                "tolerance": 1e-9,
            },
            "julia_inequality": {"checked": checked, "violations": 0, "skipped": 0},
        }

    def test_colligation_above_the_family_cap_draws_nothing(self, monkeypatch, capsys):
        from ncjulia import domain, realization

        def refuse(*args):
            raise AssertionError("drew a sample or built a colligation for an oversized one")

        for module, name in (
            (realization, "random_realization"),
            (domain, "gaussian_drafts"),
        ):
            monkeypatch.setattr(module, name, refuse)
        # cartan:11 has J = 11, so dim_E 6 makes mJ = 66 > 64, though each is below the cap
        argv = ["fuzz", "--samples", "2", "--seed", "1", "--delta", "cartan:11", "--dim-E", "6"]
        assert main(argv) == 2
        assert "--dim-E times the grid size J must be at most 64" in capsys.readouterr().err
        monkeypatch.undo()
        # each cap alone still runs: mJ = 64
        for delta, dim_e in (("cartan:64", "1"), ("polydisk:1", "64")):
            argv = ["fuzz", "--samples", "2", "--seed", "1", "--delta", delta, "--dim-E", dim_e]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["model_identity"]["violations"] == 0

    def test_grid_that_cannot_be_sampled_exits_three(self, files, capsys):
        # halving a draft moves 1 + 0.5 x toward 1, above 1 - margin: a draft outside stays out
        path = write_json(files["tmp"] / "delta.json", {"d": 1, "entries": [["1 + 0.5*x0"]]})
        assert main(["fuzz", "--samples", "3", "--delta", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: could not scale a random point into the domain\n"

    def test_delta_without_variables_is_a_parse_error(self, files, capsys):
        for d in (-1, 0):
            path = write_json(files["tmp"] / "delta.json", {"d": d, "entries": [["0.5"]]})
            assert main(["fuzz", "--samples", "3", "--delta", path]) == 2, d
            assert "d must be at least 1" in capsys.readouterr().err

    def test_non_finite_coefficient_is_a_parse_error(self, files):
        bad = {"d": 2, "terms": [{"coeff": [float("inf"), 0.0], "word": [0]}]}  # JSON Infinity
        for entry in ("1e300*x0*1e300", "x0 + 1e400", bad):
            path = write_json(files["tmp"] / "delta.json", {"d": 2, "entries": [[entry, "x1"]]})
            assert main(["fuzz", "--samples", "3", "--delta", path]) == 2

    def test_json_polynomial_above_the_caps_is_a_parse_error(self, files, capsys):
        from ncjulia.freepoly import MAX_DEGREE, MAX_TERMS

        deep = {"d": 2, "terms": [{"coeff": [0.5, 0.0], "word": [0] * 200_000}]}
        wide = {"d": 2, "terms": [{"coeff": [0.5, 0.0], "word": [0]}] * (MAX_TERMS + 1)}
        for entry, message in ((deep, f"maximum {MAX_DEGREE}"), (wide, f"more than {MAX_TERMS}")):
            path = write_json(files["tmp"] / "delta.json", {"d": 2, "entries": [[entry, "x1"]]})
            assert main(["fuzz", "--samples", "5", "--delta", path]) == 2
            assert message in capsys.readouterr().err

    def test_delta_grid_above_the_term_cap_is_a_parse_error(self, files, capsys, monkeypatch):
        import time

        from ncjulia import domain
        from ncjulia.freepoly import MAX_TERMS

        def refuse(*args):
            raise AssertionError("drew a sample for an oversized delta file")

        # each entry holds 4096 = MAX_TERMS terms; a 16 x 16 grid of them, 4.9 KB of JSON
        grid = [["(x0+x1+x2+x3)^6"] * 16] * 16
        path = write_json(files["tmp"] / "delta.json", {"d": 4, "entries": grid})
        with monkeypatch.context() as patch:
            patch.setattr(domain, "gaussian_drafts", refuse)
            start = time.perf_counter()
            assert main(["fuzz", "--samples", "1", "--delta", path]) == 2
            assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: delta grid holds more than {MAX_TERMS} terms in all\n"
        )
        # one such entry is within the cap
        one = write_json(files["tmp"] / "one.json", {"d": 4, "entries": [grid[0][:1]]})
        assert main(["fuzz", "--samples", "1", "--delta", one]) == 0


class TestDerivative:
    def test_diagonal_direction(self, files, capsys):
        code = main([
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["inward"],
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eta"]["data"][0][0] == pytest.approx(-1.0, abs=1e-7)
        assert out["beta"] == pytest.approx(1.0)

    def test_closed_form_comparison(self, files, capsys):
        code = main([
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["inward"], "--closed-form", "example-h3-eta",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closed_form_relative_error"] <= 1e-6

    @pytest.mark.parametrize(
        "scalars, message",
        [
            ([0.5, 0.5], "T is interior (||delta(T)|| = 0.5); boundary analysis undefined"),
            ([1.5, 0.5], "T is outside the closed domain (||delta(T)|| = 1.5)"),
        ],
    )
    def test_point_off_the_boundary_refused_before_the_w_path(self, files, scalars, message,
                                                              capsys):
        point = write_json(files["tmp"] / "off.json", {"scalars": [[z, 0] for z in scalars]})
        code = main([
            "derivative", "--fixture", "example-h1", "--point", point,
            "--direction", files["inward"],
        ])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tangent_direction_rejected(self, files):
        assert main([
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["tangent"],
        ]) == 3

    def test_non_homogeneous_delta_uses_ray_extraction(self, files, capsys):
        # mixed-degree grid: the boundary value must be extracted along the
        # ray because radial sequences are undefined for it
        delta = write_json(
            files["tmp"] / "mixed.json",
            {"d": 2, "entries": [["x0", "0"], ["0", "3*x1 - 2*x1^2"]]},
        )
        direction = write_json(
            files["tmp"] / "Kmixed.json", {"scalars": [[-1.0, 0.0], [1.0, 0.0]]}
        )
        code = main([
            "derivative", "--delta", delta, "--realization", "example-h1",
            "--point", files["boundary"], "--direction", direction,
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is True
        assert out["beta"] == pytest.approx(1.0, abs=1e-12)
        assert out["W"]["data"][0][0] == pytest.approx(1.0, abs=1e-6)


def _colligation(a, d):
    """The 1 x 1 colligation [[a, 0], [0, d]] of dim_E = J = 1, isometric only for |a| = |d| = 1."""
    zero = {"rows": 1, "cols": 1, "data": [[0, 0]]}
    scalar = lambda z: {"rows": 1, "cols": 1, "data": [[z, 0]]}  # noqa: E731
    return {"dim_E": 1, "J": 1, "A": scalar(a), "B": zero, "C": zero, "D": scalar(d)}


# error class of the package -> (argv that raises it in its command's handler, exit code),
# and SystemExit -> an argv that argparse refuses; "{name}" stands for the file of that
# name in ``files`` or in EXIT_FILES
EXIT_CODES = {
    "SystemExit": (
        ["bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--steps", "1"], 2
    ),
    "ParseError": (["eval", "--fixture", "example-h1", "--point", "{malformed}"], 2),
    "PolyParseError": (
        ["eval", "--delta", "{bad_grammar}", "--realization", "example-h1", "--point",
         "{interior}"],
        2,
    ),
    "UnknownNameError": (
        ["derivative", "--fixture", "example-h1", "--point", "{boundary}", "--direction",
         "{inward}", "--closed-form", "no-such-form"],
        2,
    ),
    "PreconditionError": (["eval", "--fixture", "example-h1", "--point", "{boundary}"], 3),
    "DimensionError": (["eval", "--fixture", "example-h1", "--point", "{three_scalars}"], 3),
    # D = 2 makes I - D x exactly zero at x = 0.5, admitted by a loose isometry tolerance
    "SingularMatrixError": (
        ["eval", "--delta", "polydisk:1", "--realization", "{singular}", "--isometry-tol", "10",
         "--point", "{half}"],
        3,
    ),
    # phi = 1/2 everywhere: its boundary limit is 1/2 away from unitary
    "ConvergenceError": (
        ["derivative", "--delta", "polydisk:1", "--realization", "{constant}", "--isometry-tol",
         "10", "--point", "{one}", "--direction", "{minus_one}"],
        3,
    ),
}
EXIT_FILES = {
    "bad_grammar": {"d": 2, "entries": [["x0 +", "0"], ["0", "x1"]]},
    "three_scalars": {"scalars": [[0.1, 0], [0.2, 0], [0.3, 0]]},
    "singular": _colligation(0.0, 2.0),
    "constant": _colligation(0.5, 0.0),
    "half": {"scalars": [[0.5, 0]]},
    "one": {"scalars": [[1, 0]]},
    "minus_one": {"scalars": [[-1, 0]]},
}


class TestExitCodes:
    """The exit-code contract: each error class of the package, and argparse, has its code."""

    def test_every_error_class_has_a_row(self):
        import inspect

        from ncjulia import errors

        classes = {
            name for name, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == errors.__name__
        }
        assert classes | {"SystemExit"} == set(EXIT_CODES)

    @pytest.mark.parametrize("name", list(EXIT_CODES))
    def test_exit_code(self, name, files, capsys):
        from ncjulia import errors
        from ncjulia.cli import build_parser

        paths = {k: write_json(files["tmp"] / f"{k}.json", v) for k, v in EXIT_FILES.items()}
        paths.update(files)
        template, code = EXIT_CODES[name]
        argv = [arg.format(**paths) for arg in template]
        with pytest.raises((SystemExit, errors.ParseError, errors.PreconditionError)) as caught:
            args = build_parser().parse_args(argv)
            args.func(args)
        assert type(caught.value).__name__ == name
        capsys.readouterr()
        assert main(argv) == code
        # main prints the handler's message; argparse prints its usage and its own message
        message = "usage:" if name == "SystemExit" else f"error: {caught.value}\n"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ([["x0", "0"], ["0", "x1"]], "expected a delta object, got list"),
        ({"d": 2}, "delta object missing field: 'entries'"),
        ({"d": 2, "entries": "x0"}, "delta entries must be a grid of rows"),
        ({"d": 2, "entries": ["x0", "x1"]}, "delta entries must be a grid of rows"),
        ({"d": 2, "entries": [["x0", "0"], ["x1"]]}, "entry grid rows must have equal length"),
        (
            {"d": 2, "J": 3, "entries": [["x0", "0"], ["0", "x1"]]},
            "delta lists J=3 but padded size is 2",
        ),
        (
            {"d": 2, "entries": [[5, "0"], ["0", "x1"]]},
            "expected a polynomial object or string, got int",
        ),
        (
            {"d": 2, "entries": [[{"terms": []}, "0"], ["0", "x1"]]},
            "polynomial object missing or malformed field: 'd'",
        ),
        (
            {"d": 2, "entries": [[{"d": 3, "terms": []}, "0"], ["0", "x1"]]},
            "polynomial has d=3, expected d=2",
        ),
        (
            {"d": 2, "entries": [[{"d": 2, "terms": [{"coeff": [1, 0]}]}, "0"], ["0", "x1"]]},
            "malformed polynomial term: 'word'",
        ),
        (
            {"d": 2, "entries": [[_poly([[1, 0]], [2]), "0"], ["0", "x1"]]},
            "variable index 2 out of range for d=2",
        ),
    ])
    def test_malformed_delta_file_exits_2(self, files, capsys, grid, message):
        path = write_json(files["tmp"] / "grid.json", grid)
        for argv in (
            ["eval", "--delta", path, "--realization", "example-h1", "--point", files["interior"]],
            ["fuzz", "--delta", path],
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("colligation, message", [
        ([_H1_REALIZATION], "expected a realization object, got list"),
        ({**_H1_REALIZATION, "B": _SCALAR}, "block B has shape (1, 1), expected (1, 2)"),
    ])
    def test_malformed_realization_file_exits_2(self, files, capsys, colligation, message):
        path = write_json(files["tmp"] / "colligation.json", colligation)
        argv = ["--delta", "polydisk:2", "--realization", path, "--point"]
        for argv in (
            ["eval", *argv, files["interior"]],
            ["bpoint", *argv, files["boundary"]],
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("point, message", [
        ({"scalars": []}, "scalars list must be a non-empty list"),
        ({"components": []}, "point needs a non-empty component list"),
    ])
    def test_malformed_point_file_exits_2(self, files, capsys, point, message):
        path = write_json(files["tmp"] / "point.json", point)
        assert main(["eval", "--fixture", "example-h1", "--point", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_truncated_file_exits_2_with_its_position(self, files, capsys):
        path = files["tmp"] / "truncated.json"
        path.write_text('{"scalars": [[0.5, 0], ')
        assert main(["eval", "--fixture", "example-h1", "--point", str(path)]) == 2
        message = f"error: malformed JSON in {path}: Expecting value at line 1 column 24\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("argv, message", [
        (
            ["eval", "--fixture", "example-h1", "--point", "{interior}", "--isometry-tol", "abc"],
            "argument --isometry-tol: expected a finite number > 0, got 'abc'",
        ),
        (["fuzz", "--samples", "1.5"], "argument --samples: expected an integer >= 1, got '1.5'"),
    ])
    def test_option_of_the_wrong_type_exits_2(self, files, capsys, argv, message):
        assert main([arg.format(**files) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage:") and err.endswith(f"error: {message}\n")

    def test_delta_without_a_realization_exits_2(self, files, capsys):
        assert main(["eval", "--delta", "polydisk:2", "--point", files["interior"]]) == 2
        message = "error: need either --fixture or both --delta and --realization\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("argv", [
        ["eval", "--fixture", "example-h1", "--point", "{deep}"],
        ["bpoint", "--fixture", "example-h1", "--point", "{boundary}", "--ray", "{deep}"],
        ["derivative", "--fixture", "example-h1", "--point", "{boundary}", "--direction", "{deep}"],
        ["eval", "--delta", "{deep}", "--realization", "example-h1", "--point", "{interior}"],
        ["eval", "--realization", "{deep}", "--delta", "polydisk:2", "--point", "{interior}"],
        ["fuzz", "--delta", "{deep}"],
    ])
    def test_nesting_past_the_recursion_limit_is_malformed_json(self, files, capsys, argv):
        # 100 000 nested arrays run json's decoder out of recursion: a parse error, not a crash
        deep = files["tmp"] / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main([arg.format(deep=deep, **files) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: malformed JSON in {deep}: ")
        assert "Traceback" not in err


class TestMeta:
    def test_fixtures_listing(self, capsys):
        assert main(["fixtures"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "example-h1" in out["fixtures"]

    def test_schema(self, capsys):
        assert main(["schema"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) >= {"matrix", "polynomial", "delta", "point", "realization"}

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2

    def test_one_parser_serves_failing_and_valid_calls(self, capsys):
        from ncjulia import cli

        assert main(["fuzz", "--samples", "0"]) == 2
        assert main(["fixtures"]) == 0
        assert "example-h1" in json.loads(capsys.readouterr().out)["fixtures"]
        assert cli.build_parser() is cli.build_parser()

    def test_package_reads_no_environment(self):
        # a run is set by its arguments alone: no module of the package reads an environment knob
        import ast
        from pathlib import Path

        import ncjulia

        knobs = {"environ", "environb", "getenv", "getenvb"}
        found = []
        for path in sorted(Path(ncjulia.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute) and node.attr in knobs
                    and isinstance(node.value, ast.Name) and node.value.id == "os"
                ) or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(alias.name in knobs for alias in node.names)
                ):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_config_validation(self, files):
        # each invalid value is refused before any work is done
        fuzz = ["fuzz", "--samples", "2"]
        bpoint = ["bpoint", "--fixture", "example-h1", "--point", files["boundary"]]
        evaluate = ["eval", "--fixture", "example-h1", "--point", files["interior"]]
        for argv in (
            fuzz + ["--samples", "0"],
            fuzz + ["--seed", "-1"],
            fuzz + ["--dim-E", "0"],
            bpoint + ["--steps", "1"],
            bpoint + ["--seed", "-1"],
            evaluate + ["--isometry-tol", "nan"],
        ):
            assert main(argv) == 2, argv

    def test_verdict_thresholds_margin_and_step_sizes_are_not_options(self, files, capsys):
        # the verdicts' tolerances, the sampling margin and the first steps of approach paths
        # and ladders are constants: any value, valid or not, is refused as an unknown flag
        # before any work is done
        fuzz = ["fuzz", "--samples", "2"]
        bpoint = ["bpoint", "--fixture", "example-h1", "--point", files["boundary"]]
        derivative = [
            "derivative", "--fixture", "example-h1", "--point", files["boundary"],
            "--direction", files["inward"],
        ]
        for argv in (
            fuzz + ["--margin", "0.05"],
            fuzz + ["--margin", "-1"],
            fuzz + ["--margin", "nan"],
            fuzz + ["--margin", "2"],
            fuzz + ["--margin", "1"],
            fuzz + ["--model-residual-tol", "1e-9"],
            fuzz + ["--model-residual-tol", "nan"],
            fuzz + ["--rel-tol", "1e-8"],
            fuzz + ["--rel-tol", "inf"],
            bpoint + ["--margin", "0.05"],
            bpoint + ["--margin", "1"],
            bpoint + ["--residual-tol", "1e-8"],
            bpoint + ["--residual-tol", "nan"],
            bpoint + ["--rel-tol", "1e-8"],
            bpoint + ["--first-step", "0.5"],
            bpoint + ["--first-step", "1e308"],
            derivative + ["--ladder-first-step", "1e-2"],
            derivative + ["--ladder-first-step", "1e30"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {argv[-2]} {argv[-1]}\n" in captured.err, argv

    def test_every_declared_option_is_registered(self):
        # a flag that no subcommand adds is a dead entry of _OPTIONS, with its argparse type
        import argparse

        from ncjulia.cli import _OPTIONS, build_parser

        (commands,) = (
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        registered = {
            flag for command in commands.values() for flag in command._option_string_actions
        }
        assert sorted(set(_OPTIONS) - registered) == []

    def test_underflowing_step_count_exits_three_at_once(self, files, monkeypatch, capsys):
        from ncjulia import domain

        def refuse(**kwargs):
            raise AssertionError(f"built a sequence of {len(kwargs['steps'])} steps")

        monkeypatch.setattr(domain, "SequencePoints", refuse)
        point = ["--fixture", "example-h1", "--point", files["boundary"]]
        for argv in (["bpoint", *point], ["derivative", *point, "--direction", files["inward"]]):
            assert main(argv + ["--steps", "2000"]) == 3, argv
            assert capsys.readouterr().err == "error: steps must be positive\n"

    def test_bare_list_point_is_a_parse_error(self, files, capsys):
        point = write_json(files["tmp"] / "bare.json", [_SCALAR, _SCALAR])
        assert main(["eval", "--fixture", "example-h1", "--point", point]) == 2
        assert "'components' or 'scalars'" in capsys.readouterr().err

    def test_listed_sizes_must_match_the_point(self, files, capsys):
        listings = (({"d": 3, "n": 4}, "point lists d=3"), ({"n": 4}, "point lists n=4"))
        for listed, message in listings:
            for form in ({"scalars": [[0.5, 0], [0.3, 0]]}, {"components": [_SCALAR, _SCALAR]}):
                point = write_json(files["tmp"] / "sized.json", {**form, **listed})
                assert main(["eval", "--fixture", "example-h1", "--point", point]) == 2
                assert message in capsys.readouterr().err

    def test_zero_size_point_is_a_parse_error(self, files, capsys):
        empty = {"rows": 0, "cols": 0, "data": []}
        point = write_json(files["tmp"] / "empty.json", {"components": [empty, empty]})
        handle = ["--fixture", "example-h1", "--point", point]
        for argv in (
            ["eval", *handle],
            ["derivative", *handle, "--direction", files["inward"]],
            ["bpoint", *handle],
        ):
            assert main(argv) == 2, argv
            assert "at least 1 x 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, obj",
        [
            ("delta", {"d": 2, "J": "x", "entries": [["x0", "0"], ["0", "x1"]]}),
            ("delta", {"d": 2.7, "entries": [["x0", "0"], ["0", "x1"]]}),
            ("delta", {"d": True, "entries": [["x0"]]}),
            ("delta", {"d": 2, "entries": [[_poly([["a", 0]], [0]), "x1"]]}),
            ("delta", {"d": 2, "entries": [[_poly([[1, 0]], [0.9]), "x1"]]}),
            ("delta", {"d": 2, "entries": [[_poly([[10**400, 0]], [0]), "x1"]]}),
            ("point", {"d": 2, "n": "two", "components": [_SCALAR, _SCALAR]}),
            ("point", {"components": [{"rows": 1, "cols": 1, "data": [["a", 0]]}, _SCALAR]}),
            ("point", {"components": [{"rows": 1, "cols": 1, "data": [[None, 0]]}, _SCALAR]}),
            ("point", {"components": [{"rows": 1.9, "cols": 1, "data": [[0.5, 0]]}, _SCALAR]}),
            ("point", {"scalars": [[0.5, 0], [True, 0]]}),
            ("realization", {**_H1_REALIZATION, "dim_E": 1.0}),
            ("realization", {**_H1_REALIZATION, "J": "2"}),
        ],
    )
    def test_malformed_json_numbers_are_parse_errors(self, files, kind, obj):
        path = write_json(files["tmp"] / f"{kind}.json", obj)
        argv = {
            "delta": ["fuzz", "--samples", "3", "--delta", path],
            "point": ["eval", "--fixture", "example-h1", "--point", path],
            "realization": [
                "eval", "--delta", "polydisk:2", "--realization", path,
                "--point", files["interior"],
            ],
        }[kind]
        assert main(argv) == 2

    def test_integer_beyond_the_digit_limit_is_a_parse_error(self, files):
        path = files["tmp"] / "delta.json"
        path.write_text('{"d": 1' + "0" * 5000 + ', "entries": [["x0"]]}')
        assert main(["fuzz", "--samples", "3", "--delta", str(path)]) == 2

    def test_many_variables_in_a_small_grid_build_no_polydisk(self, files, monkeypatch):
        from ncjulia import fixtures

        def refuse(d):
            raise AssertionError(f"built the {d}-polydisk")

        monkeypatch.setattr(fixtures, "polydisk_delta", refuse)
        path = write_json(files["tmp"] / "delta.json", {"d": 100, "entries": [["0.5*x0"]]})
        assert main(["fuzz", "--samples", "2", "--delta", path]) == 0

    def test_delta_file_above_the_variable_cap_draws_nothing(self, files, monkeypatch):
        from ncjulia import cartan_delta, delta_from_json, delta_to_json, domain

        def refuse(*args):
            raise AssertionError("drew a sample for an oversized delta file")

        monkeypatch.setattr(domain, "gaussian_drafts", refuse)
        cap = domain.MAX_DELTA_VARIABLES
        # too many variables, and a 1 x 65 grid of zeros: above the grid cap
        wide = [["0"] * (domain.MAX_FAMILY_SIZE + 1)]
        for obj in ({"d": cap + 1, "entries": [["0.5*x0"]]}, {"d": 1, "entries": wide}):
            path = write_json(files["tmp"] / "delta.json", obj)
            assert main(["fuzz", "--samples", "3", "--delta", path]) == 2
            assert main([
                "eval", "--fixture", "example-h1", "--delta", path, "--point", files["interior"],
            ]) == 2
        # the largest named family is a valid delta file
        largest = cartan_delta(domain.MAX_FAMILY_SIZE)
        assert largest.d == cap
        assert delta_from_json(delta_to_json(largest)) == largest

    def test_oversized_families_and_dim_e_build_nothing(self, monkeypatch):
        from ncjulia import fixtures, realization

        def refuse(*args):
            raise AssertionError("an oversized grid or colligation was built")

        for family in ("polydisk", "ball", "cartan"):
            monkeypatch.setitem(fixtures._DELTA_FAMILIES, family, refuse)
        monkeypatch.setattr(realization, "random_realization", refuse)
        cap = fixtures.MAX_FAMILY_SIZE
        for argv in (
            ["--delta", "polydisk:100000"],
            ["--delta", "ball:20000"],
            ["--delta", f"cartan:{cap + 1}"],
            ["--dim-E", "100000"],
            ["--dim-E", str(cap + 1)],
        ):
            assert main(["fuzz", "--samples", "1", *argv]) == 2, argv

    def test_options_a_command_ignores_are_rejected(self, files):
        assert main([
            "eval", "--fixture", "example-h1", "--point", files["interior"], "--seed", "3",
        ]) == 2
        assert main(["fixtures", "--samples", "5"]) == 2
        assert main([
            "bpoint", "--fixture", "example-h1", "--point", files["boundary"], "--radial",
        ]) == 2


class TestRendering:
    def test_seventeen_significant_digits(self):
        text = render_json({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip_is_lossless(self):
        values = [1/3, 0.1, 1e-17, 123456.789, np.pi]
        text = render_json({"v": values})
        back = json.loads(text)["v"]
        assert back == values

    def test_infinity_encoded_as_string(self):
        assert json.loads(render_json({"a": float("inf")}))["a"] == "inf"
