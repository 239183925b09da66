"""Algorithm CLIs fail invalid arguments cleanly: exit 2, one line.

The regression: a bad size or execution argument used to escape
``runner.emit`` as a raw traceback (exit 1).  The runner now catches
pipeline and validation errors at the CLI boundary and reports them the
way argparse reports flag errors -- a single ``<prog>: error: <reason>``
line on stderr and exit status 2 -- while real bugs still traceback.
"""

from __future__ import annotations

import pytest

from repro.algorithms.bwt.main import main as bwt_main
from repro.algorithms.gse.main import main as gse_main
from repro.algorithms.tf.main import main as tf_main


class TestBwtCli:
    def test_negative_tree_height_exits_2_with_one_line(self, capsys):
        status = bwt_main(["-n", "-1"])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("bwt: error:") or ": error:" in lines[0]

    def test_controlled_rotation_qasm_export_succeeds(self, capsys):
        # This invocation used to exit 2: the BWT walk's controlled
        # exp(-i%Z) / V gates had no OpenQASM 2 spelling.  The exporter
        # now encodes them exactly (crz, h/cu1/h), so the same command
        # must produce a parseable program instead of a refusal.
        from repro.program import Program

        status = bwt_main(["-n", "2", "-f", "qasm"])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.out.startswith("OPENQASM 2.0;")
        assert Program.loads_qasm(captured.out).qasm() == captured.out

    def test_valid_invocation_still_exits_0(self, capsys):
        assert bwt_main(["-n", "3", "-f", "gatecount"]) == 0
        assert "error" not in capsys.readouterr().err


class TestTfCli:
    def test_invalid_shots_exits_2_with_one_line(self, capsys):
        status = tf_main(["-s", "pow17", "-l", "2", "-f", "run",
                          "--shots", "-3"])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert ": error:" in lines[0]

    def test_valid_invocation_still_exits_0(self, capsys):
        assert tf_main(["-s", "pow17", "-l", "2", "-f", "gatecount"]) == 0
        assert "error" not in capsys.readouterr().err


class TestQasmInputCli:
    def test_malformed_angle_exits_2_with_one_line(self, tmp_path, capsys):
        # 5,000 signs once overflowed the recursive angle evaluator.
        source = tmp_path / "signs.qasm"
        source.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                          f"qreg q[1];\nrz({'-' * 5000}1) q[0];\n")
        status = gse_main(["-i", str(source), "-f", "gatecount"])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert ": error: line 4: angle expression" in lines[0]


class TestAsciiInputCli:
    def test_deeply_nested_shape_exits_2_with_one_line(self, tmp_path,
                                                       capsys):
        # A Shape: line nested 5,000 deep once overflowed the recursive
        # shape reader: exit 1 and a traceback thousands of lines long.
        from repro.algorithms.tf.main import part_program
        from repro.io import dumps

        lines = dumps(part_program("mul", 2, 3, 2, "orthodox").bcircuit)
        lines = lines.splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("Shape: "))
        deep = "(" * 5000 + "q0" + ")" * 5000
        lines[first] = f"Shape: {deep} -> {deep}"
        source = tmp_path / "deep.quip"
        source.write_text("\n".join(lines) + "\n")
        status = bwt_main(["-i", str(source), "-f", "gatecount"])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert ": error: shape nested deeper than" in lines[0]


    @pytest.mark.parametrize("shape, message", [
        ("{foo:q0}", "bad shape dict key 'foo'"),
        ("{[1]:q0}", "bad shape dict key '[1]'"),
        ("{1:q0,1:q1}", "duplicate shape dict key '1'"),
    ], ids=["name", "unhashable", "repeat"])
    def test_bad_shape_dict_key_exits_2_with_one_line(self, tmp_path, capsys,
                                                      shape, message):
        # These keys once escaped as a bare ValueError or TypeError, or
        # (repeated) silently dropped a wire.
        source = tmp_path / "key.quip"
        source.write_text(f"Shape: {shape} -> q0\n"
                          "Inputs: 0:Qubit\nOutputs: 0:Qubit\n")
        status = bwt_main(["-i", str(source), "-f", "gatecount"])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert f": error: {message}" in lines[0]


class TestBinaryBaseCli:
    def test_unlowerable_gate_exits_2_with_one_line(self, tmp_path, capsys):
        # The binary base has no rule for a quantum-controlled two-target
        # rotation; the refusal is a pipeline error, not a traceback.
        source = tmp_path / "czz.quip"
        source.write_text('Inputs: 0:Qubit, 1:Qubit, 2:Qubit\n'
                          'QGate["exp(-i0.5ZZ)"](0,1) with controls=[+2]\n'
                          'Outputs: 0:Qubit, 1:Qubit, 2:Qubit\n')
        status = bwt_main(["-i", str(source), "-g", "binary",
                           "-f", "gatecount"])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert ": error: no binary decomposition implemented" in lines[0]


class TestSimulationErrorCli:
    @pytest.mark.parametrize("backend", ("clifford", "statevector"))
    def test_quantum_controlled_classical_not_exits_2_with_one_line(
            self, tmp_path, capsys, backend):
        # The Clifford backend once let this escape as a bare KeyError,
        # printed as "error: 0".
        source = tmp_path / "cnot.quip"
        source.write_text("Inputs: 0:Qubit\n"
                          "CInit1(8)\n"
                          "CInit0(7)\n"
                          "CNot(7) with controls=[+c8, +0]\n"
                          "CDiscard(8)\n"
                          "Outputs: 0:Qubit, 7:Bit\n")
        status = gse_main(["-i", str(source), "-f", "run",
                           "--backend", backend])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert ": error: a classical NOT cannot be controlled by a qubit" \
            in lines[0]


class TestArgparseErrorsUnchanged:
    """Bad flag *values* still go through argparse's own exit-2 path."""

    def test_bad_format_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bwt_main(["-f", "nonsense"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
