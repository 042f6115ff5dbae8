import ast
import csv
import json
import math
from pathlib import Path

import pytest

from opmagic import Circuit, Gate, SparseOperator
from opmagic.cli import main, parse_alphas, parse_angle, parse_range


def write_circuit(tmp_path, circuit, name="circuit.json"):
    path = tmp_path / name
    path.write_text(json.dumps(circuit.to_json_dict()))
    return str(path)


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def t_ladder(n):
    return Circuit(n, tuple(Gate("T", (q,)) for q in range(n)))


class TestParsers:
    def test_parse_angle(self):
        assert parse_angle("0.3927") == pytest.approx(0.3927)
        assert parse_angle("pi/8") == pytest.approx(math.pi / 8)
        assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
        assert parse_angle("3*pi/8") == pytest.approx(3 * math.pi / 8)
        assert parse_angle("pi") == pytest.approx(math.pi)
        with pytest.raises(ValueError):
            parse_angle("eight")
        with pytest.raises(ValueError):
            parse_angle("pi/0")

    def test_parse_alphas(self):
        assert parse_alphas("0.5,1,2,inf") == [0.5, 1.0, 2.0, math.inf]

    def test_parse_alpha_rejects_nan(self):
        with pytest.raises(ValueError):
            parse_alphas("2,nan")

    def test_parse_angle_lives_in_the_core(self):
        from opmagic import cli, heisenberg

        assert cli.parse_angle is heisenberg.parse_angle

    def test_core_modules_do_not_import_cli(self):
        import opmagic

        package = Path(opmagic.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name in ("cli.py", "__main__.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                else:
                    continue
                if any("cli" in name.split(".") for name in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_dense_oracle_does_not_use_the_engine(self):
        # dense.py is the ground truth the engine is checked against, so it
        # names neither the engine's entry points nor its private functions
        import opmagic

        package = Path(opmagic.__file__).parent
        engine = ast.parse((package / "heisenberg.py").read_text(encoding="utf-8"))
        forbidden = {"evolve_heisenberg", "conjugate_gate"} | {
            node.name
            for node in engine.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        }
        assert "_propagate" in forbidden
        offenders = []
        for node in ast.walk(ast.parse((package / "dense.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.rsplit(".", 1)[-1] for a in node.names]
            else:
                continue
            offenders += [f"dense.py:{node.lineno}: {n}" for n in names if n in forbidden]
        assert offenders == []

    def test_parse_range(self):
        assert parse_range("1..4") == [1, 2, 3, 4]
        assert parse_range("7") == [7]
        assert parse_range("1,3,5") == [1, 3, 5]


class TestOseCommand:
    def test_t_ladder_gives_four(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(4))
        out = tmp_path / "ose.csv"
        code = main(
            ["ose", "--circuit", circuit, "--seed-op", "X0 X1 X2 X3",
             "--alpha", "2", "--out", str(out)]
        )
        assert code == 0
        header, row = read_csv_rows(out)
        assert header[:3] == ["alpha", "purity", "ose"]
        assert float(row[2]) == pytest.approx(4.0, abs=1e-12)

    def test_alpha_list_and_inf(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(2))
        out = tmp_path / "ose.csv"
        assert main(
            ["ose", "--circuit", circuit, "--seed-op", "XX",
             "--alpha", "1,2,inf", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert [r[0] for r in rows] == ["1", "2", "inf"]
        for r in rows:
            assert float(r[2]) == pytest.approx(2.0, abs=1e-12)

    def test_large_finite_alpha(self, tmp_path):
        # eight equal weights 1/8: sum p^2000 underflows, yet every index gives 3
        circuit = write_circuit(tmp_path, t_ladder(3))
        out = tmp_path / "ose.csv"
        assert main(
            ["ose", "--circuit", circuit, "--seed-op", "XXX",
             "--alpha", "2,2000,inf", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert [r[0] for r in rows] == ["2", "2000", "inf"]
        for r in rows:
            assert float(r[2]) == pytest.approx(3.0, abs=1e-12)

    def test_provenance_header(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, t_ladder(2))
        assert main(["ose", "--circuit", circuit, "--seed-op", "XX"]) == 0
        captured = capsys.readouterr().out
        assert "# tool=opmagic" in captured and "# params=" in captured


class TestEvolveCommand:
    def test_round_trip_bit_identical(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(3))
        out = tmp_path / "op.json"
        assert main(
            ["evolve", "--circuit", circuit, "--seed-op", "XXX", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        reloaded = SparseOperator.from_json_dict(data["operator"])
        from opmagic import evolve_heisenberg, PauliString

        want = evolve_heisenberg(
            SparseOperator.from_pauli(PauliString.from_label("XXX")), t_ladder(3)
        )
        assert reloaded.terms == want.terms


class TestXxzScanCommand:
    def test_linear_growth_at_pi_over_8(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert main(
            ["xxz-scan", "--J", "0.3927", "--t", "1..8", "--alpha", "2",
             "--ax", "1", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert len(rows) == 8
        for t, row in zip(range(1, 9), rows):
            assert float(row[6]) == pytest.approx(float(t), abs=1e-8)

    def test_simulate_flag(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert main(
            ["xxz-scan", "--J", "pi/8", "--t", "1..3", "--alpha", "2",
             "--ax", "1", "--simulate", "--out", str(out)]
        ) == 0
        for row in read_csv_rows(out)[1:]:
            assert float(row[8]) < 1e-9

    def test_alpha_inf(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert main(
            ["xxz-scan", "--J", "0.3", "--t", "1..3", "--alpha", "inf", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert [row[2] for row in rows] == ["inf"] * 3
        assert float(rows[0][6]) == pytest.approx(-math.log2(math.cos(0.6) ** 2), abs=1e-12)

    @pytest.mark.parametrize(
        "extra", [["--alpha", "2000"], ["--alpha", "1000", "--ax", "0.6", "--az", "0.8"]]
    )
    def test_large_finite_alpha(self, tmp_path, extra):
        out = tmp_path / "xxz.csv"
        assert main(["xxz-scan", "--J", "0.3", "--t", "1..2", *extra, "--out", str(out)]) == 0
        for row in read_csv_rows(out)[1:]:
            assert math.isfinite(float(row[6]))

    @pytest.mark.parametrize(
        "extra",
        [["--J", "pi/4", "--t", "1..3", "--alpha", "0.01", "--simulate"],
         ["--J", "0", "--t", "1", "--alpha", "2"]],
    )
    def test_clifford_points_print_zero(self, tmp_path, extra):
        out = tmp_path / "xxz.csv"
        assert main(["xxz-scan", *extra, "--out", str(out)]) == 0
        for row in read_csv_rows(out)[1:]:
            assert row[6] == "0.0"


class TestHaarAvgCommand:
    def test_deterministic_output(self, tmp_path):
        args = ["haar-avg", "--n", "1", "--alpha", "2", "--samples", "300", "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_mean_near_closed_form(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(
            ["haar-avg", "--n", "2", "--alpha", "2", "--samples", "2000",
             "--seed", "5", "--out", str(out)]
        ) == 0
        (row,) = read_csv_rows(out)[1:]
        mean, stderr, closed = float(row[3]), float(row[4]), float(row[5])
        assert closed == pytest.approx(3 / 14, abs=1e-12)
        assert abs(mean - closed) < 3 * stderr

    def test_alpha_inf_and_zero(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(
            ["haar-avg", "--n", "2", "--alpha", "inf,0", "--samples", "100",
             "--seed", "5", "--out", str(out)]
        ) == 0
        (inf_row, zero_row) = read_csv_rows(out)[1:]
        assert inf_row[1] == "inf" and 1 / 15 <= float(inf_row[3]) <= 1.0
        assert float(zero_row[3]) == 15.0
        assert inf_row[5:] == zero_row[5:] == ["", ""]


class TestOtherCommands:
    def test_doped_scan(self, tmp_path):
        out = tmp_path / "doped.csv"
        assert main(
            ["doped-scan", "--n", "4", "--tau", "2", "--circuits", "5",
             "--alpha", "2", "--clifford-depth", "24", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert len(rows) == 5
        for row in rows:
            assert float(row[3]) <= 2.0 + 1e-9

    def test_truncate_study(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(3))
        out = tmp_path / "trunc.csv"
        assert main(
            ["truncate-study", "--circuit", circuit, "--seed-op", "XXX",
             "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert len(rows) == 8  # rank 2^3
        last = rows[-1]
        assert float(last[3]) == pytest.approx(0.0, abs=1e-12)  # eps at full rank

    def test_nullity(self, tmp_path):
        circuit = write_circuit(tmp_path, Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
        out = tmp_path / "null.csv"
        assert main(["nullity", "--circuit", circuit, "--out", str(out)]) == 0
        (row,) = read_csv_rows(out)[1:]
        assert int(row[0]) == 4 and float(row[1]) == 2.0
        assert float(row[2]) <= float(row[3]) + 1e-9

    def test_nullity_with_sre_side(self, tmp_path):
        circuit = write_circuit(tmp_path, Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
        out = tmp_path / "null.csv"
        assert main(
            ["nullity", "--circuit", circuit, "--sre-samples", "4", "--out", str(out)]
        ) == 0
        header, row = read_csv_rows(out)
        assert header[-2:] == ["avg_linear_sre", "sre_over_ose"]
        assert float(row[4]) > 0.0

    def test_json_format(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(2))
        out = tmp_path / "o.json"
        assert main(
            ["ose", "--circuit", circuit, "--seed-op", "XX",
             "--format", "json", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["tool"] == "opmagic" and data["rows"][0][2] == pytest.approx(2.0)


class TestExitCodes:
    def test_missing_file_is_bad_input(self, tmp_path, capsys):
        assert main(["ose", "--circuit", str(tmp_path / "nope.json"), "--seed-op", "X0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_is_bad_input(self, capsys):
        assert main(["ose", "--nonsense"]) == 1

    def test_bad_seed_op(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, t_ladder(2))
        assert main(["ose", "--circuit", circuit, "--seed-op", "Q9"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "opmagic" in capsys.readouterr().out

    def test_qubits_line_without_count(self, tmp_path, capsys):
        path = tmp_path / "circ.txt"
        path.write_text("qubits\nT 0\n")
        assert main(["ose", "--circuit", str(path), "--seed-op", "X0"]) == 1
        assert "qubits N" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_in_text(self, tmp_path, capsys, angle):
        path = tmp_path / "circ.txt"
        path.write_text(f"qubits 1\nRZ 0 {angle}\n")
        out = tmp_path / "op.json"
        assert main(["evolve", "--circuit", str(path), "--seed-op", "X", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_angle_in_json(self, tmp_path, capsys):
        path = tmp_path / "circ.json"
        path.write_text('{"n": 1, "gates": [{"kind": "RZ", "sites": [0], "theta": NaN}]}')
        assert main(["evolve", "--circuit", str(path), "--seed-op", "X"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, field",
        [
            ('{"n": 2, "gates": [{"kind": "H", "sites": [0.5]}]}', "H site must"),
            ('{"n": 2, "gates": [{"kind": "H", "sites": "0"}]}', "H sites must"),
            ('{"n": 2, "gates": [{"kind": "CNOT", "sites": [0, 1.0]}]}', "CNOT site must"),
            ('{"n": 2, "gates": 5}', "gates must"),
            ('{"n": 2, "gates": [5]}', "a gate must"),
            ('{"n": null, "gates": []}', "count n must"),
            ('{"n": 2, "gates": [{"kind": "RZ", "sites": [0], "theta": [1]}]}', "theta must"),
            ('{"n": 2.7, "gates": [{"kind": "H", "sites": [0]}]}', "count n must"),
            ('{"n": 2, "gates": [{"kind": "H", "sites": [true]}]}', "H site must"),
        ],
    )
    def test_malformed_json_circuit(self, tmp_path, capsys, body, field):
        path = tmp_path / "circ.json"
        path.write_text(body)
        assert main(["ose", "--circuit", str(path), "--seed-op", "XX"]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"gates": []}', "a circuit is missing the field 'n'"),
            ('{"n": 2, "gates": [{"sites": [0]}]}', "a gate is missing the field 'kind'"),
            ('{"n": 2, "gates": [{"kind": "H"}]}', "a gate is missing the field 'sites'"),
        ],
    )
    def test_json_circuit_missing_field(self, tmp_path, capsys, body, message):
        path = tmp_path / "circ.json"
        path.write_text(body)
        assert main(["ose", "--circuit", str(path), "--seed-op", "XX"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["xxz-scan", "--J", "0.3", "--t", "5..1"], "--t '5..1' gives an empty list"),
            (["haar-avg", "--n", "2", "--alpha", ","], "--alpha ',' gives an empty list"),
            (["truncate-study", "--chi", "5..1"], "--chi '5..1' gives an empty list"),
            (["doped-scan", "--n", "4", "--tau", "1", "--circuits", "0"], "--circuits must be at least 1"),
            (["doped-scan", "--n", "4", "--tau", "1", "--circuits", "-2"], "--circuits must be at least 1"),
            (["doped-scan", "--n", "0", "--tau", "1"], "qubit count n must be positive"),
        ],
        ids=["t-range", "alpha-list", "chi-range", "circuits-0", "circuits-negative", "n-0"],
    )
    def test_empty_result_is_bad_input(self, tmp_path, capsys, argv, message):
        if argv[0] == "truncate-study":
            argv = argv + ["--circuit", write_circuit(tmp_path, t_ladder(2)), "--seed-op", "XI"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_nan_alpha_is_bad_input(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(2))
        assert main(["ose", "--circuit", circuit, "--seed-op", "XX", "--alpha", "nan"]) == 1

    def test_gate_text_circuit_accepted(self, tmp_path):
        path = tmp_path / "circ.txt"
        path.write_text("qubits 2\nT 0\nRZZ 0 1 pi/8\n")
        out = tmp_path / "ose.csv"
        assert main(
            ["ose", "--circuit", str(path), "--seed-op", "XI", "--out", str(out)]
        ) == 0

    def test_trailing_tokens_in_text_circuit(self, tmp_path, capsys):
        path = tmp_path / "circ.txt"
        path.write_text("qubits 1\nRZ 0 0.3 junk\n")
        out = tmp_path / "op.json"
        assert main(["evolve", "--circuit", str(path), "--seed-op", "X", "--out", str(out)]) == 1
        assert "RZ 0 0.3 junk" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_alpha_in_haar_avg(self, capsys):
        assert main(["haar-avg", "--n", "2", "--alpha", "-1", "--samples", "50"]) == 1
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["doped-scan", "--n", "3", "--tau", "1", "--circuits", "1"],
            ["nullity", "--circuit", "c.txt"],
        ],
    )
    def test_workers_only_on_haar_avg(self, argv, capsys):
        assert main([*argv, "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err


# One invocation per command and the provenance it wrote when each command
# listed its parameters by hand: the CSV `# params=` line and the JSON
# `params` object, key order included.
PROVENANCE = {
    "evolve": (
        ["--circuit", "c.txt", "--seed-op", "X0"],
        None,
        '{"circuit": "c.txt", "seed_op": "X0"}',
    ),
    "ose": (
        ["--circuit", "c.txt", "--seed-op", "X0", "--alpha", "1,inf"],
        '# params={"alpha": "1,inf", "circuit": "c.txt", "seed_op": "X0"}',
        '{"circuit": "c.txt", "seed_op": "X0", "alpha": "1,inf"}',
    ),
    "xxz-scan": (
        ["--J", "pi/8", "--t", "1..2", "--ax", "0.6", "--az", "0.8"],
        '# params={"J": "pi/8", "alpha": "2", "ax": 0.6, "ay": 0.0, "az": 0.8, "simulate": false, "t": "1..2"}',
        '{"J": "pi/8", "t": "1..2", "alpha": "2", "ax": 0.6, "ay": 0.0, "az": 0.8, "simulate": false}',
    ),
    "haar-avg": (
        ["--n", "1", "--samples", "20", "--seed", "3", "--workers", "2"],
        '# params={"alpha": "2", "n": 1, "samples": 20, "seed": 3, "workers": 2}',
        '{"n": 1, "alpha": "2", "samples": 20, "seed": 3, "workers": 2}',
    ),
    "doped-scan": (
        ["--n", "3", "--tau", "1", "--circuits", "2", "--seed", "5"],
        '# params={"alpha": "2", "circuits": 2, "clifford_depth": null, "n": 3, "seed": 5, "tau": 1}',
        '{"n": 3, "tau": 1, "circuits": 2, "alpha": "2", "clifford_depth": null, "seed": 5}',
    ),
    "truncate-study": (
        ["--circuit", "c.txt", "--seed-op", "X0", "--chi", "1..2"],
        '# params={"chi": "1..2", "circuit": "c.txt", "seed_op": "X0"}',
        '{"circuit": "c.txt", "seed_op": "X0", "chi": "1..2"}',
    ),
    "nullity": (
        ["--circuit", "c.txt", "--sre-samples", "2", "--seed", "4"],
        '# params={"circuit": "c.txt", "seed": 4, "sre_samples": 2}',
        '{"circuit": "c.txt", "sre_samples": 2, "seed": 4}',
    ),
}


@pytest.mark.parametrize("command", sorted(PROVENANCE))
def test_provenance_params_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("qubits 2\nH 0\nCNOT 0 1\nT 1\n")
    rest, csv_line, json_params = PROVENANCE[command]
    if csv_line is not None:
        assert main([command, *rest]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("# params=")] == [csv_line]
        rest = [*rest, "--format", "json"]
    assert main([command, *rest]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == command
    assert json.dumps(data["params"]) == json_params
