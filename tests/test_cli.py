"""Command-line behaviour: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskphase
from diskphase import SpecError, cli, verification
from diskphase.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SPEC,
    _json_text,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateCommand:
    def test_number_state_json(self, capsys):
        code, out, _ = run(
            capsys, "state", "--json", '{"kind":"number","m":2}', "--n", "6"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["coeffs"][2] == [1.0, 0.0]
        assert payload["number_distribution"][2] == 1.0
        assert payload["norm_defect"] == 0.0

    def test_coherent_geometric(self, capsys):
        code, out, _ = run(
            capsys, "state", "--json", '{"kind":"su11_cs","z":[0.5,0]}', "--n", "8"
        )
        payload = json.loads(out)
        coeffs = [complex(re, im) for re, im in payload["coeffs"]]
        assert coeffs[1] / coeffs[0] == pytest.approx(0.5)

    def test_blaschke_values(self, capsys):
        code, out, _ = run(
            capsys, "state", "--json", '{"kind":"blaschke","z":[0.5,0]}', "--n", "4"
        )
        payload = json.loads(out)
        assert payload["coeffs"][0] == [-0.5, 0.0]
        assert payload["coeffs"][1][0] == pytest.approx(0.75)

    def test_superpose_spec(self, capsys):
        spec = json.dumps(
            {
                "kind": "superpose",
                "components": [{"kind": "number", "m": 0}, {"kind": "number", "m": 3}],
                "amplitudes": [[1, 0], [1, 0]],
            }
        )
        code, out, _ = run(capsys, "state", "--json", spec, "--n", "8")
        payload = json.loads(out)
        assert payload["coeffs"][0][0] == pytest.approx(1 / math.sqrt(2))
        assert payload["coeffs"][3][0] == pytest.approx(1 / math.sqrt(2))

    def test_weyl_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "state",
            "--json",
            '{"kind":"number","m":1}',
            "--n",
            "4",
            "--weyl",
            "2:0.0:0.0",
        )
        payload = json.loads(out)
        assert payload["coeffs"][3] == [1.0, 0.0]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "state",
            "--json",
            '{"kind":"number","m":1}',
            "--n",
            "3",
            "--format",
            "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "# norm_defect=0.0"
        assert lines[1] == "n,re_coeff,im_coeff,probability"
        assert lines[3].startswith("1,1.0,0.0,1.0")


class TestFactorCommand:
    def test_blaschke_report(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--json", '{"kind":"blaschke","z":[0.5,0]}', "--n", "64"
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert len(rep["zeros"]) == 1
        gamma = rep["zeros"][0]["gamma"]
        assert gamma[0] == pytest.approx(0.5, abs=1e-8)
        assert rep["outer_defect"] == pytest.approx(math.log(2), abs=1e-6)
        assert rep["outer"] is False
        assert rep["singular_suspected"] is False

    def test_coherent_report(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--json", '{"kind":"su11_cs","z":[0.5,0]}', "--n", "64"
        )
        rep = json.loads(out)
        assert rep["zeros"] == []
        assert abs(rep["outer_defect"]) < 1e-8
        assert rep["outer"] is True

    def test_number_state_monomial_note(self, capsys):
        code, out, _ = run(
            capsys, "factor", "--json", '{"kind":"number","m":3}', "--n", "16"
        )
        rep = json.loads(out)
        assert rep["monomial_degree"] == 3
        assert rep["outer_defect"] is None
        inner = [complex(re, im) for re, im in rep["inner_coeffs"]]
        assert inner[3] == pytest.approx(1.0, abs=1e-10)


    def test_subnormal_tail_state(self, capsys):
        code, out, err = run(capsys, "factor", "--json", '{"kind":"bg","u":[1,0]}')
        assert code == EXIT_OK and err == ""
        rep = json.loads(out)
        assert rep["zeros"] == [] and rep["outer"] is True

    def test_root_solve_failure_is_numeric_exit(self, capsys, monkeypatch):
        def broken_roots(p):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np, "roots", broken_roots)
        spec = json.dumps(
            {
                "kind": "superpose",
                "components": [{"kind": "number", "m": 0}, {"kind": "number", "m": 3}],
                "amplitudes": [[1, 0], [1, 0]],
            }
        )
        code, out, err = run(capsys, "factor", "--json", spec, "--n", "64")
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("numeric precondition violated")
        assert "Traceback" not in err

    def test_linalg_error_from_a_handler_is_numeric_exit(self, capsys, monkeypatch):
        def broken_grid(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(cli, "wigner_grid", broken_grid)
        spec = '{"kind":"number","m":0}'
        code, out, err = run(capsys, "wigner", "--json", spec, "--n", "8")
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric precondition violated: forced\n"


_PRINT_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
_SUBCOMMAND_RUNS = """
import sys, tempfile
from pathlib import Path
from diskphase import cli
out = Path(tempfile.mkdtemp()) / "out"
spec = '{"kind":"pi_superposition","z":[0.6,0.2],"tau":2.0}'
runs = [
    ["state", "--json", spec],
    ["factor", "--json", spec],
    ["phase-dist", "--json", spec],
    ["wigner", "--json", spec, "--n", "32"],
    ["bg", "--json", '{"kind":"bg","u":[1,0]}'],
    ["verify", "--only", "poisson", "--format", "csv"],
    ["verify"],
]
assert [cli.main([*argv, "--out", str(out)]) for argv in runs] == [0] * len(runs)
"""


def test_import_leaves_scipy_linalg_out():
    """No scipy module is loaded by the import or by any subcommand, a full
    verify included: scipy.special alone takes about 0.3 s per CLI process."""
    src = str(Path(diskphase.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    for code in ("import sys, diskphase.cli", _SUBCOMMAND_RUNS):
        result = subprocess.run(
            [sys.executable, "-c", code + "\n" + _PRINT_SCIPY],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "[]"


def test_import_leaves_numpy_fft_out():
    """The FFT series product, like the disk FFT layer, reaches np.fft only
    when called, so the import does not load numpy.fft."""
    src = str(Path(diskphase.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys, diskphase.cli; print('numpy.fft' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


# ", " inside a string must survive: only float lists take the fast path
_JSON_SCALARS = (
    st.floats()
    | st.integers()
    | st.text(max_size=8)
    | st.just("a, b")
    | st.booleans()
    | st.none()
)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS | st.lists(st.floats(), max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_text_matches_indented_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


_VACUUM = '{"kind":"number","m":0}'
_RAW4 = '{"kind":"raw","coeffs":[[0.3,0.1],[0.2,-0.4],[0.1,0.5],0.2]}'
_RAW40 = json.dumps({"kind": "raw", "coeffs": [0.1] * 40})


class TestDataCommands:
    def test_phase_dist_uniform(self, capsys):
        code, out, _ = run(
            capsys,
            "phase-dist",
            "--json",
            '{"kind":"number","m":2}',
            "--n",
            "8",
            "--grid",
            "32",
            "--format",
            "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "theta,re_theta_fn,im_theta_fn,phase_density"
        densities = [float(line.split(",")[3]) for line in lines[1:]]
        assert densities == pytest.approx([1 / (2 * np.pi)] * 32)

    def test_wigner_band(self, capsys):
        code, out, _ = run(
            capsys,
            "wigner",
            "--json",
            '{"kind":"number","m":2}',
            "--n",
            "8",
            "--grid",
            "64",
            "--n-max",
            "4",
            "--format",
            "csv",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        values = {(int(n), float(t)): float(s) for n, t, s in rows}
        assert all(v == pytest.approx(1 / (2 * np.pi)) for (n, _), v in values.items() if n == 2)
        assert all(v == 0.0 for (n, _), v in values.items() if n != 2)

    @pytest.mark.parametrize(
        "argv, spec, grid",
        [
            (("wigner", "--n", "16", "--n-max", "40"), _VACUUM, 128),
            (("phase-dist", "--n", "32", "--weyl", "40:0:0"), _VACUUM, 256),
            # a raw spec sets the truncation: 4 + 40 levels fit the 4 N default
            (("phase-dist", "--n", "32", "--weyl", "40:0:0"), _RAW4, 128),
            (("wigner", "--n", "1"), _RAW40, 128),
        ],
    )
    def test_default_grid_resolves_the_run(self, capsys, argv, spec, grid):
        # 4 N is doubled until it exceeds 2 n_max + 1 and holds the
        # shifted truncation twice
        code, out, _ = run(capsys, *argv, "--json", spec)
        assert code == EXIT_OK
        assert len(json.loads(out)["theta"]) == grid

    def test_wigner_json_reports_marginal_residuals(self, capsys):
        code, out, _ = run(
            capsys, "wigner", "--json", '{"kind":"su11_cs","z":[0.5,0]}', "--n", "32"
        )
        rep = json.loads(out)
        assert rep["number_marginal_residual"] < 1e-10
        assert rep["phase_marginal_residual"] < 1e-10

    def test_bg_vacuum_ray(self, capsys):
        code, out, _ = run(
            capsys,
            "bg",
            "--json",
            '{"kind":"number","m":0}',
            "--n",
            "8",
            "--format",
            "csv",
            "--tmax",
            "1.0",
            "--points",
            "5",
        )
        # ray CSV plus a JSON block with the factor-part atoms
        csv_part, json_part = out.split("{", 1)
        lines = csv_part.strip().splitlines()
        assert lines[0] == "t,re_u,im_u"
        assert all(line.split(",")[1] == "1.0" for line in lines[1:])
        atoms = json.loads("{" + json_part)
        assert atoms["atom_out"] == [2.0, 0.0]
        assert atoms["atom_in"] == [0.0, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bg_default_truncation_warns_nothing(self, capsys):
        code, out, _ = run(capsys, "bg", "--json", '{"kind":"su11_cs","z":[0.5,0]}')
        assert code == EXIT_OK
        assert len(json.loads(out)["ray"]["values"]) == 65


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,fmt", [("factor", "json"), ("phase-dist", "csv"), ("wigner", "json")]
    )
    def test_identical_bytes(self, capsys, command, fmt):
        # factor prints JSON only and takes no --format
        argv = (
            command,
            "--json",
            '{"kind":"pi_superposition","z":[0.8,0],"tau":2.356194490192345}',
            "--n",
            "64",
            *(() if command == "factor" else ("--format", fmt)),
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestExitCodes:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "state", "--json", "{not json")
        assert code == EXIT_SPEC
        assert "spec error" in err

    def test_unknown_kind(self, capsys):
        code, _, _ = run(capsys, "state", "--json", '{"kind":"squeezed"}')
        assert code == EXIT_SPEC

    def test_missing_field(self, capsys):
        code, _, _ = run(capsys, "state", "--json", '{"kind":"su11_cs"}')
        assert code == EXIT_SPEC

    def test_grid_below_bandwidth(self, capsys):
        code, _, err = run(
            capsys,
            "phase-dist",
            "--json",
            '{"kind":"number","m":0}',
            "--n",
            "64",
            "--grid",
            "64",
        )
        assert code == EXIT_NUMERIC
        assert "precondition" in err

    def test_coherent_label_on_edge(self, capsys):
        code, _, _ = run(
            capsys, "state", "--json", '{"kind":"su11_cs","z":[0.9999999,0]}'
        )
        assert code == EXIT_NUMERIC

    def test_overfull_raw_spec(self, capsys):
        code, _, _ = run(
            capsys, "state", "--json", '{"kind":"raw","coeffs":[[1,0],[1,0]]}'
        )
        assert code == EXIT_SPEC

    def test_unwritable_output(self, capsys):
        code, _, err = run(
            capsys,
            "state",
            "--json",
            '{"kind":"number","m":0}',
            "--out",
            "/nonexistent-dir/out.json",
        )
        assert code == EXIT_IO

    def test_bad_weyl_flag(self, capsys):
        code, _, _ = run(
            capsys, "state", "--json", '{"kind":"number","m":0}', "--weyl", "1:2"
        )
        assert code == EXIT_SPEC

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"number","m":"x"}',
            '{"kind":"number","m":true}',
            '{"kind":"number","m":2.7}',
            '{"kind":"number","m":[2]}',
            '{"kind":"pi_superposition","z":0.5,"tau":"a"}',
            '{"kind":"pi_superposition","z":0.5,"tau":false}',
            '{"kind":"su11_cs","z":true}',
            '{"kind":"su11_cs","z":[0.5,true]}',
            '{"kind":"su11_cs","z":[0.5]}',
            pytest.param('{"kind":"su11_cs","z":1%s}' % ("0" * 400), id="z=1e400"),
            pytest.param('{"kind":"su11_cs","z":1%s}' % ("0" * 5000), id="z=1e5000"),
            '{"kind":"bg","u":null}',
            '{"kind":"superpose","components":3,"amplitudes":[1]}',
            '{"kind":"superpose","components":[{"kind":"number","m":0}],'
            '"amplitudes":1}',
            '{"kind":"raw","coeffs":0.5}',
            '{"kind":"raw","coeffs":"ab"}',
            '{"kind":"raw","coeffs":[0.5,"x"]}',
        ],
    )
    def test_wrongly_typed_field(self, capsys, spec):
        code, out, err = run(capsys, "state", "--json", spec)
        assert code == EXIT_SPEC and out == ""
        assert err.startswith("spec error") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, spec, option",
        [
            ("bg", '{"kind":"number","m":1}', "--points=-1"),
            ("bg", '{"kind":"number","m":1}', "--tmax=nan"),
            ("bg", '{"kind":"number","m":1}', "--tmax=inf"),
            ("bg", '{"kind":"number","m":1}', "--arg=-inf"),
            ("factor", '{"kind":"number","m":1}', "--outer-tol=nan"),
            ("factor", '{"kind":"number","m":1}', "--outer-tol=inf"),
            ("factor", '{"kind":"number","m":1}', "--outer-tol=-1e-6"),
        ],
    )
    def test_option_out_of_range(self, capsys, command, spec, option):
        code, out, err = run(capsys, command, "--json", spec, option)
        assert code == EXIT_SPEC and out == ""
        assert err.startswith("spec error") and "Traceback" not in err

    def test_bg_empty_ray(self, capsys):
        code, out, _ = run(
            capsys, "bg", "--json", '{"kind":"number","m":1}', "--points", "0"
        )
        assert code == EXIT_OK
        assert json.loads(out)["ray"]["t"] == []

    @pytest.mark.filterwarnings("error")
    def test_bg_of_a_number_state_past_170(self, capsys):
        # U(u) = u^200/200!: 0, 1.3e25 and 2.04e85 on t = 0, 100, 200
        code, out, err = run(
            capsys, "bg", "--n", "256", "--tmax", "200", "--points", "3",
            "--json", '{"kind":"number","m":200}',
        )
        assert code == EXIT_OK and err == ""
        values = json.loads(out)["ray"]["values"]
        for t, (re, im) in zip((0, 100, 200), values):
            assert im == 0
            assert re == pytest.approx(t**200 / math.factorial(200), rel=1e-13, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_bg_overflow_on_the_ray_exits_numeric(self, capsys):
        # u^3 overflows at |u| = 1e300: exit 3 rather than NaN in the JSON
        code, out, err = run(
            capsys, "bg", "--json", '{"kind":"number","m":3}', "--n", "8",
            "--tmax=1e300", "--points", "3",
        )
        assert code == EXIT_NUMERIC and out == ""
        assert "overflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["factor", "bg"])
    def test_non_finite_factorisation_exits_numeric(self, capsys, command):
        # the disk zeros of bg(20) at the default N = 256 lie within their
        # rounding radii of the circle
        code, out, err = run(capsys, command, "--json", '{"kind":"bg","u":[20,0]}')
        assert code == EXIT_NUMERIC and out == ""
        assert "rounding radius" in err and "Traceback" not in err

    def test_deeply_nested_spec_file(self, capsys, tmp_path):
        # 900 superpose levels: deeper than json.loads can decode
        head = '{"kind":"superpose","amplitudes":[1],"components":['
        path = tmp_path / "deep.json"
        path.write_text(head * 900 + '{"kind":"number","m":0}' + "]}" * 900)
        code, out, err = run(capsys, "state", "--spec", str(path), "--n", "4")
        assert code == EXIT_SPEC and out == ""
        assert err.startswith("spec error") and "Traceback" not in err

    def test_deeply_nested_spec_object(self, capsys, monkeypatch):
        # a decoded spec deeper than parse_state_spec can recurse
        spec = {"kind": "number", "m": 0}
        for _ in range(sys.getrecursionlimit()):
            spec = {"kind": "superpose", "components": [spec], "amplitudes": [1]}
        monkeypatch.setattr(cli, "_load_spec", lambda args: spec)
        code, out, err = run(capsys, "state", "--json", "{}", "--n", "4")
        assert code == EXIT_SPEC and out == ""
        assert "nested too deeply" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"raw","coeffs":[NaN,0.5]}',
            '{"kind":"raw","coeffs":[[0.5,Infinity]]}',
            '{"kind":"su11_cs","z":NaN}',
        ],
    )
    def test_non_finite_coefficients(self, capsys, spec):
        code, out, err = run(capsys, "factor", "--json", spec)
        assert code == EXIT_SPEC and out == ""
        assert err.startswith("spec error")


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", ["1e309", "-Infinity", "NaN", "[0,NaN]"])
    def test_non_finite_superposition_amplitude(self, capsys, amplitude):
        spec = (
            '{"kind":"superpose","components":[{"kind":"number","m":1},'
            '{"kind":"number","m":2}],"amplitudes":[%s,1]}' % amplitude
        )
        for command in ("state", "wigner", "factor"):
            code, out, err = run(capsys, command, "--json", spec, "--n", "8")
            assert code == EXIT_SPEC and out == ""
            assert "amplitudes must be finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "amplitudes, expected",
        [
            ("[1e200,1]", [1.0, 1e-200]),
            ("[1e308,-1e308]", [0.5**0.5, -(0.5**0.5)]),
            ("[[1e308,1e308],[1e308,-1e308]]", [0.5 + 0.5j, 0.5 - 0.5j]),
        ],
    )
    def test_superposition_of_huge_amplitudes(self, capsys, amplitudes, expected):
        # the plain norm overflows; a power-of-two rescale keeps the state
        spec = (
            '{"kind":"superpose","components":[{"kind":"number","m":1},'
            '{"kind":"number","m":2}],"amplitudes":%s}' % amplitudes
        )
        state = cli.parse_state_spec(json.loads(spec), 4)
        np.testing.assert_allclose(
            state.coeffs, [0, *expected, 0], rtol=1e-15, atol=0
        )
        for command in ("state", "wigner", "factor"):
            code, out, err = run(capsys, command, "--json", spec, "--n", "8")
            assert code == EXIT_OK and err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "components, amplitudes, expected",
        [
            ('{"kind":"number","m":1}', "[1e-13]", EXIT_OK),
            ('{"kind":"number","m":1},{"kind":"number","m":2}', "[1e-320,1e-320]", EXIT_OK),
            ('{"kind":"number","m":1},{"kind":"number","m":1}', "[1e-320,-1e-320]",
             EXIT_NUMERIC),
            ('{"kind":"su11_cs","z":0.5},{"kind":"su11_cs","z":0.5}', "[1e-13,-1e-13]",
             EXIT_NUMERIC),
        ],
    )
    def test_superposition_degeneracy_is_relative(
        self, capsys, components, amplitudes, expected
    ):
        # small amplitudes alone do not make a state degenerate; cancellation does
        spec = '{"kind":"superpose","components":[%s],"amplitudes":%s}' % (
            components, amplitudes
        )
        code, out, err = run(capsys, "state", "--json", spec, "--n", "4")
        assert code == expected
        assert (out == "") == (expected != EXIT_OK)
        assert ("zero norm" in err) == (expected != EXIT_OK)


_STATE_FLAGS = {"--n", "--spec", "--json", "--weyl"}
_SAMPLED_FLAGS = _STATE_FLAGS | {"--grid", "--format", "--out"}
_DECLARED = {
    "state": _STATE_FLAGS | {"--format", "--out"},
    "factor": _STATE_FLAGS | {"--grid", "--outer-tol", "--out"},
    "phase-dist": _SAMPLED_FLAGS,
    "wigner": _SAMPLED_FLAGS | {"--n-max"},
    "bg": _SAMPLED_FLAGS | {"--arg", "--tmax", "--points"},
    "verify": {"--format", "--out", "--only"},
}


class TestOptions:
    def test_each_subcommand_declares_the_flags_it_reads(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        declared = {
            name: {
                flag
                for action in p._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            }
            for name, p in sub.choices.items()
        }
        assert declared == _DECLARED
        assert sum(map(len, declared.values())) == 41

    @pytest.mark.parametrize(
        "argv",
        [
            ("state", "--grid", "64"),
            ("factor", "--format", "csv"),
            ("bg", "--edge-margin", "0.1"),
            ("factor", "--edge-margin", "1e-3"),
        ],
    )
    def test_removed_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--json", '{"kind":"number","m":0}', *argv[1:]])
        assert exc.value.code == EXIT_SPEC
        assert capsys.readouterr().out == ""


class TestSizeBudget:
    # values >= 10**12, so a missed check fails fast instead of paging in
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("state", "--n", str(10**12)), "--n"),
            (("state", "--weyl", f"{10**12}:0:0"), "--weyl"),
            (("phase-dist", "--grid", str(2**40)), "--grid"),
            (("factor", "--grid", str(2**40)), "--grid"),
            (("wigner", "--n-max", str(10**12)), "--n-max"),
            (("bg", "--points", str(10**12)), "--points"),
        ],
    )
    def test_oversize_refused(self, capsys, argv, flag):
        code, out, err = run(
            capsys, argv[0], "--json", '{"kind":"number","m":0}', *argv[1:]
        )
        assert code == EXIT_SPEC and out == ""
        assert err.startswith(f"spec error: {flag} ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, cells",
        [
            (("state", "--n", "40"), 40),
            (("state", "--n", "30", "--weyl", "10:0:0"), 40),
            (("factor", "--n", "8", "--grid", "32"), 3 * 32),
            (("bg", "--n", "8", "--grid", "32"), 3 * 32),
            (("bg", "--n", "8", "--grid", "32", "--points", "100"), 100),
            (("phase-dist", "--n", "8", "--grid", "32"), 32),
            (("wigner", "--n", "8", "--grid", "32"), 8 * 32),
            (("wigner", "--n", "8", "--grid", "32", "--n-max", "9"), 10 * 32),
            (("wigner", "--n", "6", "--grid", "32", "--weyl", "2:0:0"), 8 * 32),
            # default grids doubled past 4 N: 128 for n_max = 40, 256 for N + 40
            (("wigner", "--n", "16", "--n-max", "40"), 41 * 128),
            (("phase-dist", "--n", "32", "--weyl", "40:0:0"), 256),
        ],
    )
    def test_budget_edge(self, capsys, monkeypatch, argv, cells):
        argv = (argv[0], "--json", '{"kind":"number","m":0}', *argv[1:])
        monkeypatch.setattr(cli, "MAX_CELLS", cells)
        assert run(capsys, *argv)[0] == EXIT_OK
        monkeypatch.setattr(cli, "MAX_CELLS", cells - 1)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_SPEC and out == ""
        assert f"array of {cells} cells" in err

    def test_budget_checked_on_the_grid_a_raw_spec_needs(self, capsys, monkeypatch):
        # --n 1 estimates an 8-point grid; the 40 raw levels need 128
        monkeypatch.setattr(cli, "MAX_CELLS", 127)
        code, out, err = run(capsys, "phase-dist", "--n", "1", "--json", _RAW40)
        assert code == EXIT_SPEC and out == ""
        assert "--grid asks for an array of 128 cells" in err

    @pytest.mark.parametrize(
        "command, n, fits",
        [("factor", 2048, True), ("bg", 2048, True), ("wigner", 2048, True),
         ("wigner", 2049, False)],
    )
    def test_largest_supported_truncation(self, command, n, fits):
        # checked without running: wigner --n 2048 fills its 2048 x 8192
        # lattice at exactly the limit
        args = build_parser().parse_args([command, "--n", str(n), "--json", "{}"])
        if fits:
            cli._check_args(args)
        else:
            with pytest.raises(SpecError, match="--n asks for"):
                cli._check_args(args)

    def test_memory_error_is_numeric_exit(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("forced")

        monkeypatch.setattr(cli, "boundary", exhausted)
        code, out, err = run(capsys, "phase-dist", "--json", '{"kind":"number","m":0}')
        assert code == EXIT_NUMERIC and out == ""
        assert err == "out of memory: forced\n"


class TestVerifyCommand:
    def test_only_runs_the_matching_check(self, capsys, monkeypatch):
        called = []

        def spy(check, records):
            def run():
                called.append(check.__name__)
                if "poisson-mass" not in [name for name, *_ in records]:
                    raise AssertionError(f"{check.__name__} should not run")
                return check()

            return run, records

        monkeypatch.setattr(
            verification, "_CHECKS", tuple(spy(*c) for c in verification._CHECKS)
        )
        code, out, _ = run(capsys, "verify", "--only", "poisson", "--format", "csv")
        assert code == EXIT_OK
        assert called == ["check_kernels"]
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS [8] poisson-mass: residual=")
        assert lines[1].startswith("elapsed: ")

    def test_declared_names_match_the_catalog(self):
        declared = [
            name for _, records in verification._CHECKS for name, *_ in records
        ]
        produced = [r.name for r in verification.run_all().results]
        assert produced == declared + [verification.SUITE_RUNTIME]

    def test_only_runtime_times_the_whole_catalog(self, capsys, monkeypatch):
        called = []
        monkeypatch.setattr(
            verification,
            "_CHECKS",
            tuple(
                (lambda c=c: called.append(c) or [], records)
                for c, records in verification._CHECKS
            ),
        )
        code, out, _ = run(capsys, "verify", "--only", "runtime", "--format", "csv")
        assert code == EXIT_OK
        assert len(called) == len(verification._CHECKS)
        assert out.splitlines()[0].startswith("PASS [9] suite-runtime: ")

    def test_each_catalog_state_is_factorised_once_per_run(self, monkeypatch):
        factorized = Counter()
        defects = []
        factorize = verification.fz.factorize
        outer_defect = verification.fz.outer_defect

        def spy(state, grid_size=None, **kw):
            factorized[state.truncation, grid_size] += 1
            return factorize(state, grid_size=grid_size, **kw)

        def defect_spy(state, *args, **kw):
            defects.append(state)
            return outer_defect(state, *args, **kw)

        monkeypatch.setattr(verification.fz, "factorize", spy)
        monkeypatch.setattr(verification.fz, "outer_defect", defect_spy)
        assert verification.run_all().all_passed
        assert factorized == {(64, 512): 32, (128, 1024): 32}
        assert defects == []
        # the memo lives for one run: a second run factorises again
        verification.run_all()
        assert factorized == {(64, 512): 64, (128, 1024): 64}

    def test_bg_bridge_makes_one_call_per_state_and_transform(self, monkeypatch):
        calls = Counter()

        def spy(name):
            real = getattr(verification.bg, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(verification.bg, name, counted)

        spy("laplace_to_disk")
        spy("bg_convolve")
        assert verification.run_all().all_passed
        assert calls == {"laplace_to_disk": 32, "bg_convolve": 32}

    def test_size_flags_rejected(self, capsys):
        for flag in ("--n", "--grid", "--outer-tol", "--edge-margin"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", flag, "1"])
            assert exc.value.code == EXIT_SPEC

    def test_filtered_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "kernel", "--format", "csv")
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out

    def test_unknown_filter(self, capsys):
        code, _, _ = run(capsys, "verify", "--only", "nonexistent-check")
        assert code == EXIT_SPEC

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--only", "poisson", "--out", str(target)
        )
        assert code == EXIT_OK
        rep = json.loads(target.read_text())
        assert rep["results"][0]["passed"] is True


def _no_constant(name):
    raise ValueError(f"{name} in JSON output")


_PAIRS = st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2)
_PLAIN_SPECS = st.one_of(
    st.builds(lambda m: {"kind": "number", "m": m}, st.integers(0, 40)),
    st.builds(lambda z: {"kind": "su11_cs", "z": z}, _PAIRS),
    st.builds(
        lambda z, tau: {"kind": "pi_superposition", "z": z, "tau": tau},
        _PAIRS,
        st.floats(-7.0, 7.0),
    ),
    st.builds(
        lambda c: {"kind": "raw", "coeffs": c},
        st.lists(st.lists(st.floats(-0.4, 0.4), min_size=2, max_size=2),
                 min_size=1, max_size=40),
    ),
    st.builds(lambda z: {"kind": "blaschke", "z": z}, _PAIRS),
    st.builds(
        lambda u: {"kind": "bg", "u": u},
        st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=2),
    ),
)
_FUZZ_SPECS = _PLAIN_SPECS | st.builds(
    lambda parts, amps: {"kind": "superpose", "components": parts, "amplitudes": amps},
    st.lists(_PLAIN_SPECS, min_size=1, max_size=3),
    st.lists(_PAIRS, min_size=1, max_size=3),
)
_NESTED_SPECS = _FUZZ_SPECS | st.builds(
    lambda parts, amps: {"kind": "superpose", "components": parts, "amplitudes": amps},
    st.lists(_FUZZ_SPECS, min_size=1, max_size=2),
    st.lists(_PAIRS, min_size=1, max_size=2),
)
# a JSON value of the wrong type for every spec field
_WRONG_VALUES = st.sampled_from(
    ["x", "", True, False, None, {}, {"re": 0.5}, [[[0.5]]], [[0.5, 0.5], [[0.5]]],
     10**400, -(10**400)]
)


def _field_paths(spec, path=()):
    """Key paths of every field of a spec, into superpose components too."""
    for key, value in spec.items():
        yield path + (key,)
        if key == "components":
            for i, part in enumerate(value):
                yield from _field_paths(part, path + (key, i))


@st.composite
def _mistyped_specs(draw):
    """A spec with one field anywhere replaced by a wrongly typed value."""
    spec = draw(_NESTED_SPECS)
    *parents, key = draw(st.sampled_from(list(_field_paths(spec))))
    target = spec
    for step in parents:
        target = target[step]
    target[key] = draw(_WRONG_VALUES)
    return spec


def _fuzz_main(argv) -> int:
    """Run main(argv), check its exit, its output and its warnings, and
    return the exit code. Success means no warning at all."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (EXIT_OK, EXIT_SPEC, EXIT_NUMERIC), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    if code != EXIT_OK:
        assert out.getvalue() == ""
        return code
    json.loads(out.getvalue(), parse_constant=_no_constant)
    assert err.getvalue() == "" and not caught, caught
    return code


class TestFuzz:
    """Subcommands over specs and flags: a documented exit, never a
    traceback, and on success JSON with no NaN or Infinity. Every size here
    is far below MAX_CELLS."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["wigner", "phase-dist"]),
        _FUZZ_SPECS,
        st.integers(1, 32),
        st.none() | st.integers(0, 80),
        st.none() | st.tuples(st.integers(0, 40), st.floats(-4.0, 4.0),
                              st.floats(-4.0, 4.0)),
        st.none() | st.integers(0, 10).map(lambda k: 2**k),
    )
    def test_main(self, command, spec, n, n_max, weyl, grid):
        argv = [command, "--json", json.dumps(spec), "--n", str(n)]
        if command == "wigner" and n_max is not None:
            argv += ["--n-max", str(n_max)]
        if weyl is not None:
            argv += ["--weyl", "%d:%r:%r" % weyl]
        if grid is not None:
            argv += ["--grid", str(grid)]
        _fuzz_main(argv)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(["state", "factor", "bg"]),
        _FUZZ_SPECS,
        st.integers(1, 32),
        st.none() | st.integers(0, 10).map(lambda k: 2**k),
        st.none() | st.floats(allow_nan=True, allow_infinity=True),
        st.none() | st.integers(-2, 300),
    )
    def test_state_factor_bg(self, command, spec, n, grid, tmax, points):
        argv = [command, "--json", json.dumps(spec), "--n", str(n)]
        if command != "state" and grid is not None:
            argv += ["--grid", str(grid)]
        if command == "bg" and tmax is not None:
            argv += [f"--tmax={tmax!r}"]
        if command == "bg" and points is not None:
            argv += ["--points", str(points)]
        _fuzz_main(argv)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["state", "factor", "bg", "wigner", "phase-dist"]),
        _mistyped_specs(),
        st.integers(1, 32),
    )
    def test_wrongly_typed_field_anywhere(self, command, spec, n):
        argv = [command, "--json", json.dumps(spec), "--n", str(n)]
        assert _fuzz_main(argv) in (EXIT_SPEC, EXIT_NUMERIC)
