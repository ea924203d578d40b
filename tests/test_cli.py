"""Command line behaviour: outputs, formats and exit codes."""

import argparse
import json

import stringchar.sweep
from stringchar import BoundIceQuiver, LaurentPoly, Walk, enumerate_strings
from stringchar.character import cluster_character
from stringchar.cli import main
from stringchar.mutation import enumerate_cluster_variables, \
    seed_from_ice_quiver

from conftest import FIXTURES, load


def fixture(name):
    return str(FIXTURES / f"{name}.quiver")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lpoly_text(capsys):
    code, out, err = run(capsys, "lpoly", fixture("a2ice"), "--walk", "e(1)")
    assert code == 0
    assert out.strip() == "x[1]^-1 x[2] + x[1]^-1 x[3]"


def test_lpoly_json(capsys):
    code, out, _ = run(capsys, "lpoly", fixture("a2ice"), "--walk", "e(1)",
                       "--json")
    assert code == 0
    terms = json.loads(out)
    assert {"coeff": 1, "exponents": {"1": -1, "2": 1}} in terms
    assert len(terms) == 2


def test_lcount(capsys):
    code, out, _ = run(capsys, "lcount", fixture("a2"), "--walk", "alpha")
    assert code == 0
    assert out.strip() == "3"


def test_character(capsys):
    code, out, _ = run(capsys, "character", fixture("a2ice"),
                       "--string", "alpha")
    assert code == 0
    assert out.strip() == "x[2]^-1 + x[1]^-1 + x[1]^-1 x[2]^-1 x[3]"


def test_chi_total_and_dimvec(capsys):
    code, out, _ = run(capsys, "chi", fixture("a2ice"), "--string", "alpha")
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run(capsys, "chi", fixture("a2ice"), "--string", "alpha",
                       "--dimvec", "2=1")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "chi", fixture("a2ice"), "--string", "alpha",
                       "--dimvec", "1=1")
    assert (code, out.strip()) == (0, "0")


def test_chi_bad_dimvec(capsys):
    for dimvec, named in (("nonsense", "'nonsense'"), ("9=1", "'9'"),
                          ("1=-1", "-1"), ("2=1,9=0", "'9'"),
                          ("1=1,1=0", "'1'")):
        code, out, err = run(capsys, "chi", fixture("a2ice"), "--string",
                             "alpha", "--dimvec", dimvec)
        assert (code, out) == (2, ""), dimvec
        assert "parse error" in err and named in err, dimvec


def test_normalise(capsys):
    code, out, _ = run(capsys, "normalise", fixture("a2ice"),
                       "--string", "alpha")
    assert code == 0
    assert json.loads(out) == {"1": 0, "2": 0, "3": 1}


def test_normalise_string_next_to_a_loop(capsys, tmp_path):
    path = tmp_path / "loop.quiver"
    path.write_text("vertex 1\nvertex 2\narrow a 1 -> 1\narrow b 1 -> 2\n"
                    "relation a a\n")
    code, out, err = run(capsys, "normalise", str(path), "--string", "b")
    assert code == 0, err
    assert set(json.loads(out)) == {"1", "2"}


def test_euler(capsys):
    code, out, _ = run(capsys, "euler", fixture("a2ice"),
                       "--lhs", "e(1)", "--rhs", "e(2)")
    assert code == 0
    assert json.loads(out) == {"truncated": -1, "antisymmetrised": -1}


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", fixture("a2"), "--depth", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines == sorted(lines)


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", fixture("a2"), "--depth", "10",
                       "--json")
    assert code == 0
    assert len(json.loads(out)) == 5


def test_vertex_ids_that_json_escapes(capsys, tmp_path):
    # a quote, a backslash and a letter beyond ASCII: --json escapes them
    # as json.dumps does, and the text prints the ids as they are
    path = tmp_path / "escapes.quiver"
    path.write_text('vertex a"b\nvertex b\\c\nvertex \u00e9\n'
                    'arrow p a"b -> b\\c\narrow q b\\c -> \u00e9\n',
                    encoding="utf-8")
    q = BoundIceQuiver.from_file(path)
    code, out, err = run(capsys, "character", str(path), "--string", "p q",
                         "--json")
    assert (code, err) == (0, "")
    assert out == (
        '[{"coeff": 1, "exponents": {"\\u00e9": -1}}, '
        '{"coeff": 1, "exponents": {"b\\\\c": -1, "\\u00e9": -1}}, '
        '{"coeff": 1, "exponents": {"a\\"b": -1}}, '
        '{"coeff": 1, "exponents": {"a\\"b": -1, "b\\\\c": -1}}]\n')
    character = cluster_character(q, Walk.parse(q, "p q"))
    assert LaurentPoly.from_json_obj(json.loads(out)) == character
    code, out, _ = run(capsys, "character", str(path), "--string", "p q")
    assert (code, out) == (0, character.text() + "\n")
    assert 'x[a"b]^-1 x[b\\c]^-1' in out and "x[\u00e9]^-1" in out
    variables = enumerate_cluster_variables(seed_from_ice_quiver(q), 3)
    code, out, _ = run(capsys, "enumerate", str(path), "--depth", "3",
                       "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"
    assert [LaurentPoly.from_json_obj(obj) for obj in json.loads(out)] == \
        variables
    code, out, _ = run(capsys, "enumerate", str(path), "--depth", "3")
    assert (code, out.splitlines()) == (0, [f.text() for f in variables])
    assert 'x[a"b]' in out.splitlines()


def test_match(capsys):
    code, out, _ = run(capsys, "match", fixture("a2ice"), "--string", "e(1)",
                       "--depth", "6")
    assert (code, out.strip()) == (0, "found")


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", fixture("a2ice"),
                       "--max-length", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "OK: 0 failure(s)"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert len(lines) == 5


def test_verify_reports_each_failure(capsys, monkeypatch):
    # give the column x^(A e_3) of the carried shift one arrow 2 -> 3 too
    # many: exactly the strings with a position at 3 inherit the fault
    columns = stringchar.sweep._arrow_columns

    def broken(q):
        column = columns(q)
        column["3"] = column["3"] * LaurentPoly.var("2")
        return column

    monkeypatch.setattr(stringchar.sweep, "_arrow_columns", broken)
    code, out, _ = run(capsys, "verify", fixture("a3"), "--max-length", "3")
    lines = out.splitlines()
    strings = enumerate_strings(load("a3"), 3)
    failed = [f"FAIL  {c}" for c in strings if "3" in c.vertices]
    assert 1 < len(failed) < len(strings)
    assert [line for line in lines if line.startswith("FAIL ")] == failed
    assert len(lines) == len(strings) + 1
    assert lines[-1] == f"FAILED: {len(failed)} failure(s)"
    assert code == 1


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "lpoly", fixture("a2"), "--walk", "nosuch")
    assert code == 2
    assert "parse error" in err
    # a negative depth or length is refused, not run as 0
    for argv in (("verify", fixture("a2ice"), "--max-length", "-1"),
                 ("enumerate", fixture("a2"), "--depth", "-3"),
                 ("match", fixture("a2ice"), "--string", "e(1)",
                  "--depth", "-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "parse error" in err and argv[-1] in err, argv


def test_domain_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "character", fixture("a2ice"),
                       "--string", "beta")
    assert code == 1
    assert "UnfrozenViolation" in err
    # the relation-free 3-cycle has an infinite-dimensional path algebra
    path = tmp_path / "cycle3.quiver"
    path.write_text("vertex 1\nvertex 2\nvertex 3\narrow a 1 -> 2\n"
                    "arrow b 2 -> 3\narrow c 3 -> 1\n")
    for argv in (("euler", str(path), "--lhs", "a", "--rhs", "b"),
                 ("character", str(path), "--string", "a"),
                 ("normalise", str(path), "--string", "a")):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "PathLimitExceeded" in err, argv


def test_arrow_names_that_walk_syntax_reads_otherwise_exit_2(capsys,
                                                            tmp_path):
    for name in ("a^-1", "e(1)"):
        path = tmp_path / "clash.quiver"
        path.write_text(f"vertex 1\nvertex 2\nvertex 3\narrow a 1 -> 2\n"
                        f"arrow {name} 3 -> 2\n")
        code, out, err = run(capsys, "verify", str(path), "--max-length", "2")
        assert (code, out) == (2, ""), name
        assert err == f"parse error: arrow name {name!r} would be read as " \
            "another walk\n", name


def test_infinite_algebras_fail_fast(capsys, tmp_path):
    # every relation-avoiding path from 1 of length up to 22 is a word in
    # the loops a and b with no a^22, so the paths grow as 2^length
    loops = tmp_path / "loops.quiver"
    loops.write_text("vertex 1\narrow a 1 -> 1\narrow b 1 -> 1\n"
                     "relation" + " a" * 22 + "\n")
    # the same growth without loops or 2-cycles: every arrow doubled on
    # a 3-cycle, one relation of length 22 on the first copies
    cycle = tmp_path / "cycle.quiver"
    cycle.write_text(
        "vertex 1\nvertex 2\nvertex 3\n"
        + "".join(f"arrow {a}{k} {s} -> {t}\n" for a, s, t in
                  (("a", 1, 2), ("b", 2, 3), ("c", 3, 1)) for k in (1, 2))
        + "relation" + "".join(f" {'abc'[k % 3]}1" for k in range(22))
        + "\n")
    message = ("PathLimitExceeded: a path of length {} from vertex '1' "
               "avoids every relation, so the algebra is infinite "
               "dimensional\n")
    commands = (("character", "--string", "e(1)"),
                ("normalise", "--string", "e(1)"),
                ("verify", "--max-length", "1"),
                ("euler", "--lhs", "e(1)", "--rhs", "e(1)"))
    for command, *rest in commands:
        code, _, err = run(capsys, command, str(cycle), *rest)
        assert (code, err) == (1, message.format(25)), command
        code, _, err = run(capsys, command, str(loops), *rest)
        if command in ("character", "verify"):
            # their loops are rejected before the algebra is examined
            assert (code, err) == (1, "QuiverError: cluster characters "
                                   "need a loop- and 2-cycle-free quiver: "
                                   "arrow 'a' is a loop at '1'\n")
        else:
            assert (code, err) == (1, message.format(23)), command


def test_k0_ill_defined_exit_code(capsys, tmp_path):
    path = tmp_path / "a3rel.quiver"
    path.write_text("vertex 1\nvertex 2\nvertex 3\narrow a 1 -> 2\n"
                    "arrow b 2 -> 3\nrelation a b\n")
    code, _, err = run(capsys, "character", str(path), "--string", "a")
    assert code == 1
    assert "K0IllDefined" in err and "'3'" in err


def test_string_commands_build_no_representation(capsys, monkeypatch):
    # the character, the normalising vector and verify count the pairings
    # with the simples on the string: they build no module at all, so no
    # projective cover either
    calls = [
        ("verify", fixture("dcyclic3"), "--max-length", "4"),
        ("verify", fixture("diamond5"), "--max-length", "3"),
        ("character", fixture("dcyclic4"), "--string", "a2 a3"),
        ("character", fixture("diamond5"), "--string",
         "delta^-1 beta gamma", "--json"),
        ("normalise", fixture("dcyclic4"), "--string", "a1^-1 a4^-1"),
        ("normalise", fixture("a2ice"), "--string", "beta"),
    ]
    expected = [run(capsys, *argv) for argv in calls]

    def no_module(*args, **kwargs):
        raise AssertionError("a representation built on the pairing path")

    monkeypatch.setattr("stringchar.quiver.Representation.__init__",
                        no_module)
    for argv, (code, out, _err) in zip(calls, expected):
        assert code == 0
        assert run(capsys, *argv) == (code, out, ""), argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run(capsys, "lcount", fixture("a2"), "--walk", "alpha")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "lcount", fixture("a2"), "--walk", "alpha") == \
        (0, "3\n", "")
    assert run(capsys, "chi", fixture("a2"), "--string", "alpha") == \
        (0, "3\n", "")
    assert built == []


def test_missing_file_is_a_hard_error(capsys, tmp_path):
    # a missing file, a directory and a file that is not UTF-8 text are
    # parse errors (exit 2) that name the path, not tracebacks
    undecodable = tmp_path / "latin1.quiver"
    undecodable.write_bytes("vertex \xe9\n".encode("latin-1"))
    for path, reason in ((tmp_path / "no-such.quiver", "No such file"),
                         (tmp_path, "Is a directory"),
                         (undecodable, "not UTF-8")):
        code, out, err = run(capsys, "lpoly", str(path), "--walk", "e(1)")
        assert (code, out) == (2, ""), path
        assert err.startswith("parse error: ") and repr(str(path)) in err
        assert reason in err, err
