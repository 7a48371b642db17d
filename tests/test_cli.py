"""CLI behaviour: JSON output, exit codes, deterministic catalogues."""

import hashlib
import json
import time

import pytest

from skewcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_algebra_info_associative(capsys):
    code, out = run(capsys, "algebra-info", "--field", "2,2", "--sigma", "1",
                    "--f", "1,0")  # t^2 - 1
    assert code == 0
    doc = json.loads(out)
    assert doc["associative"] is True
    assert doc["two_sided_f"] is True
    # dimensions over the prime field F_2: the whole 16-element algebra
    assert doc["nucleus_dims"] == [4, 4, 4]


def test_algebra_info_nonassociative(capsys):
    code, out = run(capsys, "algebra-info", "--field", "2,2", "--sigma", "1",
                    "--f", "0.1,0")  # t^2 - w
    assert code == 0
    doc = json.loads(out)
    assert doc["associative"] is False


def test_algebra_info_reach_gf4_m9(capsys):
    """t^9 + 1 over GF(4), 4^9 = 262,144 elements, within 10 s.

    The nuclei are kernels on the 18 additive generators; an element scan
    needed a cap, and refused this algebra under its default of 4,096.
    """
    t0 = time.perf_counter()
    code, out = run(capsys, "algebra-info", "--field", "2,2", "--sigma", "1",
                    "--f", "1,0,0,0,0,0,0,0,0")
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out)
    assert doc["associative"] is False
    assert doc["nucleus_dims"] == [2, 2, 9]
    assert elapsed <= 10, f"runtime {elapsed:.1f}s over budget 10s"


@pytest.mark.parametrize("argv", [
    ("algebra-info", "--field", "2,2", "--sigma", "1", "--f", "1,0"),
    ("check-equiv", "--field", "2,2", "--sigma", "1", "--f", "1,0", "--h", "0.1,0"),
])
def test_cap_only_where_enumerated(capsys, argv):
    """--cap exists on catalogue and mindist only; elsewhere it is a usage error."""
    code = main([*argv, "--cap", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unrecognized arguments: --cap 5" in captured.err
    assert "Traceback" not in captured.err


def test_mindist_cap(capsys):
    """--cap bounds the messages enumerated, not q^dim.

    The binary [7, 4, 3] Hamming code (g = t^3 + t + 1 inside t^7 - 1) takes
    the 4 weight-1 messages (best 3) and the 6 weight-2 messages, then stops
    at weight 3 >= best: 10 messages, below its 2^4 codewords.
    """
    argv = ("mindist", "--field", "2,1", "--sigma", "0",
            "--f", "1,0,0,0,0,0,0", "--g", "1,1,0")
    code, out = run(capsys, *argv, "--cap", "10")
    assert code == 0
    assert json.loads(out)["min_dist"] == 3
    code = main([*argv, "--cap", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_mindist(capsys):
    code, out = run(capsys, "mindist", "--field", "2,2", "--sigma", "1",
                    "--f", "1,0,0", "--g", "1")  # t^3 - 1, g = t - 1
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 3
    assert doc["dim"] == 2
    assert doc["min_dist"] == 2
    assert doc["gen_matrix"] == [
        [[1, 0], [1, 0], [0, 0]],
        [[0, 0], [1, 0], [1, 0]],
    ]


def test_check_equiv_chen(capsys):
    code, out = run(capsys, "check-equiv", "--field", "2,2", "--sigma", "1",
                    "--f", "1,0,0", "--h", "0.1,0,0", "--chen")  # t^3-1 vs t^3-w
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "ChenEquivalent"
    assert doc["witness"]["tau_frob_exp"] == 0


def test_check_equiv_full(capsys):
    code, out = run(capsys, "check-equiv", "--field", "2,2", "--sigma", "1",
                    "--f", "0.1,0", "--h", "1.1,0")  # t^2-w vs t^2-w^2
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "Equivalent"
    assert doc["witness"]["tau_frob_exp"] == 1


def test_check_equiv_not_related(capsys):
    code, out = run(capsys, "check-equiv", "--field", "2,2", "--sigma", "1",
                    "--f", "0.1,0", "--h", "1,0")
    assert code == 0
    assert json.loads(out)["relation"] == "NotRelated"


def test_check_equiv_k_non_constacyclic(capsys):
    """--k searches the given degree for any pair, not only constacyclic ones:
    t^3 + t^2 + t over GF(2) is related to itself by a genuine k = 2 witness,
    whose tau is the identity, so the relation is the Chen one."""
    code, out = run(capsys, "check-equiv", "--field", "2,1", "--sigma", "0",
                    "--f", "0,1,1", "--h", "0,1,1", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "ChenIsometric"
    assert doc["witness"]["k"] == 2


def test_check_equiv_k_labels_identity_tau_chen(capsys):
    """--k 2 labels a witness with tau = id ChenIsometric, as check-equiv without --k does."""
    argv = ["check-equiv", "--field", "7,1", "--f", "5,0,0", "--h", "4,0,0"]
    docs = []
    for extra in (["--k", "2"], []):
        code, out = run(capsys, *argv, *extra)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["relation"] == docs[1]["relation"] == "ChenIsometric"
    assert docs[0]["witness"] == docs[1]["witness"]
    assert docs[0]["witness"]["tau_frob_exp"] == 0


def test_check_equiv_k_not_related(capsys):
    code, out = run(capsys, "check-equiv", "--field", "2,2", "--sigma", "1",
                    "--f", "1,0,1,0,0", "--h", "0.1,1,0,0,1", "--k", "3")
    assert code == 0
    assert json.loads(out)["relation"] == "NotRelated"


def test_check_equiv_invalid_k(capsys):
    code, _ = run(capsys, "check-equiv", "--field", "2,2", "--sigma", "1",
                  "--f", "1,0,0", "--h", "1,0,0", "--k", "2")
    assert code == 1


def test_check_equiv_k1_searches_degree_one_only(capsys):
    """--k 1 asks for an equivalence; t^3 - 2 and t^3 - 3 over GF(7) are related only by k = 2."""
    code, out = run(capsys, "check-equiv", "--field", "7,1", "--f", "5,0,0", "--h", "4,0,0",
                    "--k", "1")
    assert code == 0
    assert json.loads(out)["relation"] == "NotRelated"
    code, out = run(capsys, "check-equiv", "--field", "2,2", "--sigma", "1",
                    "--f", "0.1,0", "--h", "1.1,0", "--k", "1")  # t^2-w vs t^2-w^2
    doc = json.loads(out)
    assert (doc["relation"], doc["witness"]["k"]) == ("Equivalent", 1)


def test_check_equiv_chen_searches_every_degree(capsys):
    """--chen restricts tau to the identity, not k: t^3 - 2 and t^3 - 3 over GF(7) are
    related by k = 2 only, and tau = id there."""
    code, out = run(capsys, "check-equiv", "--field", "7,1", "--f", "5,0,0", "--h", "4,0,0",
                    "--chen")
    assert code == 0
    doc = json.loads(out)
    assert (doc["relation"], doc["witness"]["k"]) == ("ChenIsometric", 2)


@pytest.mark.parametrize("extra", [[], ["--chen"], ["--k", "1"], ["--chen", "--k", "1"]])
def test_check_equiv_filter_reason_in_every_mode(capsys, extra):
    """NotRelated carries fast_reject's reason whatever the restriction."""
    code, out = run(capsys, "check-equiv", "--field", "2,2", "--sigma", "1",
                    "--f", "1,1", "--h", "1,0", *extra)  # t^2+t+1 vs t^2+1
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"] == "NotRelated"
    assert doc["filter_reason"] == "support mismatch at degree 1"


def test_count_classes(capsys):
    code, out = run(capsys, "count-classes", "--field", "2,2", "--sigma", "1",
                    "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["nonassoc"], doc["assoc"]) == (2, 1)
    assert (doc["formula_nonassoc"], doc["formula_assoc"]) == (2, 1)


def test_count_classes_residue(capsys):
    code, out = run(capsys, "count-classes", "--ring", "6", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["formula_nonassoc"] is None


def test_count_classes_formula_needs_s_dividing_r(capsys):
    """GF(8) with sigma = x^4: s = 2 does not divide r = 3, so the formula fields are null.

    N_2(u) = u^5 and gcd(5, 7) = 1, so the norm image is all of GF(8)^x: one
    class; sigma has order 3, which does not divide m = 2, so none is associative.
    """
    code, out = run(capsys, "count-classes", "--field", "2,3", "--sigma", "2", "--m", "2")
    assert code == 0
    assert json.loads(out) == {"nonassoc": 1, "assoc": 0,
                               "formula_nonassoc": None, "formula_assoc": None}


def test_residue_ring_polynomials(capsys):
    """Z_n coefficients are integers read mod n: 7 is 3 in Z_4.

    f = t^3 + 3 = t^3 - 1 and h = t^3 + 1 = t^3 - 3: 1 = N_3(alpha) * 3 = alpha^3 * 3
    holds for alpha = 3, not for alpha = 1.  t^2 - 1 over the commutative Z_4 is
    associative, and every nucleus is the whole algebra, of rank m = 2.
    """
    code, out = run(capsys, "check-equiv", "--ring", "4", "--f", "7,0,0", "--h", "1,0,0")
    assert code == 0
    assert json.loads(out) == {"relation": "ChenEquivalent", "filter_reason": None,
                               "witness": {"tau_frob_exp": 0, "alpha": 3, "k": 1}}
    code, out = run(capsys, "algebra-info", "--ring", "4", "--f", "3,0")
    assert code == 0
    assert json.loads(out) == {"associative": True, "two_sided_f": True,
                               "nucleus_dims": [2, 2, 2]}


def test_catalogue_constacyclic(capsys):
    code, out = run(capsys, "catalogue", "--field", "2,2", "--sigma", "1",
                    "--m", "2", "--constacyclic")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2  # two full-equivalence classes
    assert sum(len(rec["chen_classes"]) for rec in lines) == 3
    assert all(rec["schema_version"] == 1 for rec in lines)


def test_catalogue_deterministic(capsys):
    args = ["catalogue", "--field", "2,2", "--sigma", "1", "--m", "2",
            "--constacyclic"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_catalogue_rejects_m1(capsys):
    code, _ = run(capsys, "catalogue", "--field", "2,2", "--sigma", "1", "--m", "1")
    assert code == 1


def test_catalogue_cap_exceeded(capsys):
    code, _ = run(capsys, "catalogue", "--field", "2,2", "--sigma", "1",
                  "--m", "2", "--cap", "2")
    assert code == 2


def test_catalogue_constacyclic_cap_below_unit_count(capsys):
    """GF(4) has 3 units, so --constacyclic with --cap 2 refuses the candidate list."""
    code = main(["catalogue", "--field", "2,2", "--sigma", "1", "--m", "2",
                 "--constacyclic", "--cap", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: unit enumeration exceeds cap")


def test_invalid_field_spec(capsys):
    code, _ = run(capsys, "algebra-info", "--field", "4,1", "--f", "1,0")
    assert code == 1


def test_element_with_too_many_digits(capsys):
    code = main(["check-equiv", "--field", "2,2", "--sigma", "1",
                 "--f", "0.1.1,0", "--h", "1,0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: element [0, 1, 1] has 3 digits")
    assert "at most 2" in err


@pytest.mark.parametrize("m", ["0", "-3"])
def test_count_classes_rejects_nonpositive_m(capsys, m):
    code = main(["count-classes", "--field", "2,2", "--sigma", "1", "--m", m])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: class counts need degree m >= 1")
    assert "Traceback" not in captured.err


def test_usage_error_exits_1(capsys):
    """An unknown option is invalid input (exit 1), not the cap code 2."""
    code = main(["catalogue", "--ring", "6", "--m", "2", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unrecognized arguments: --threads 2" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["catalogue", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_missing_ring_spec(capsys):
    code, _ = run(capsys, "algebra-info", "--f", "1,0")
    assert code == 1


@pytest.mark.parametrize("ring, message", [
    (["--field", "2,2", "--ring", "4"], "--field and --ring are mutually exclusive"),
    (["--field", "2"], "--field needs at least p,r"),
    (["--field", "2,0"], "extension degree must be >= 1"),
    (["--ring", "1"], "modulus must be >= 2"),
])
def test_invalid_ring_spec(capsys, ring, message):
    code = main(["algebra-info", *ring, "--f", "1,0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run(capsys, "count-classes", "--field", "2,2", "--sigma", "1",
                    "--m", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert (doc["nonassoc"], doc["assoc"]) == (1, 0)


@pytest.mark.parametrize("argv", [
    ("count-classes", "--field", "2,2", "--sigma", "1", "--m", "3"),
    ("catalogue", "--field", "2,2", "--sigma", "1", "--m", "2", "--constacyclic"),
])
def test_out_flag_missing_directory(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.json"
    code = main([*argv, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not path.exists()


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    import skewcodes.verify as verify

    monkeypatch.setattr(
        verify, "run_verify",
        lambda: [{"name": "x", "passed": False, "checked": 0,
                  "failures": [], "failure_count": 1}],
    )
    code, _ = run(capsys, "verify")
    assert code == 3


def test_verify_exit_code_on_success(monkeypatch, capsys):
    import skewcodes.verify as verify

    monkeypatch.setattr(
        verify, "run_verify",
        lambda: [{"name": "x", "passed": True, "checked": 1,
                  "failures": [], "failure_count": 0}],
    )
    code, out = run(capsys, "verify")
    assert code == 0
    assert json.loads(out)[0]["passed"] is True


def test_catalogue_reach_gf9_m6(capsys):
    """GF(9), Frobenius, m = 6, constacyclic: the same bytes as the exhaustive
    codeword and divisor scans gave, within 10 s (those scans took about 10 s
    on a 2-core host)."""
    t0 = time.perf_counter()
    code, out = run(capsys, "catalogue", "--field", "3,2", "--sigma", "1",
                    "--m", "6", "--constacyclic")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "617a463293fe51f0f5e11c249350959cc68176b7c08266dbd2ae94b2351df1a3"
    )
    assert elapsed <= 10, f"runtime {elapsed:.1f}s over budget 10s"


def test_catalogue_reach_gf9_m4_full(capsys):
    """GF(9), Frobenius, m = 4, all 6,561 monic candidates: the same bytes as
    the Element-level divisor scan and class orbits gave, within 10 s (about
    1.5 s with those; about 0.35 s on index lists, and about 0.28 s with one
    code per generator and one orbit pass per class, on a 2-core host)."""
    t0 = time.perf_counter()
    code, out = run(capsys, "catalogue", "--field", "3,2", "--sigma", "1", "--m", "4")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ba900c5b950169eafe8acbfdffa4730f0374ec73f065290125fb2bd1331e8440"
    )
    assert elapsed <= 10, f"runtime {elapsed:.1f}s over budget 10s"


def test_catalogue_z4_m4_bytes(capsys):
    """Z_4, m = 4, all 256 monic candidates: the benchmark's largest catalogue and
    its only Z_n one, 160 lines with the same bytes as the Element-level JSON."""
    code, out = run(capsys, "catalogue", "--ring", "4", "--sigma", "0", "--m", "4")
    assert code == 0
    assert len(out.splitlines()) == 160
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "812ff3170e972f6eb32198ae7a3ee8554abcb609d85d44b56b9de584e0270018"
    )


def test_catalogue_z4_m5_bytes(capsys):
    """Z_4, m = 5, all 1,024 monic candidates: the config where representatives
    share the most high parts, 576 lines with the bytes of one divisor scan per
    representative."""
    code, out = run(capsys, "catalogue", "--ring", "4", "--sigma", "0", "--m", "5")
    assert code == 0
    assert len(out.splitlines()) == 576
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "320b03eaccd9f490d18b2612b455521e0a04b03483f9b9ce15b28ee70cf9b4e2"
    )


def test_catalogue_scans_each_high_part_once(capsys, monkeypatch):
    """Z_4, m = 4: the 160 representatives' divisors come from 56 tables of 416
    candidates in all, against 4,000 candidates in one scan per representative
    and degree.  The 56 tables are those of degrees 1 and 2; the degree-1
    tables of psi(f) that degree 3 reads are among them, as sigma = id makes
    psi(f) = f under an equal twist (kept apart, they would add 40 tables of
    160 candidates)."""
    import skewcodes.skewpoly as skewpoly

    scans = []
    table = skewpoly.monic_right_divisor_table

    def counted_table(tw, degree, high, lows, cap):
        scans.append(tw.ring.size ** degree)
        return table(tw, degree, high, lows, cap)

    monkeypatch.setattr(skewpoly, "monic_right_divisor_table", counted_table)
    code, _ = run(capsys, "catalogue", "--ring", "4", "--sigma", "0", "--m", "4")
    assert code == 0
    assert (len(scans), sum(scans)) == (56, 416)


def test_catalogue_reads_upper_divisors_off_the_scans(capsys, monkeypatch):
    """Z_4, m = 4: every degree-3 divisor is psi^-1 of a quotient that a degree-1
    table of psi(f) keeps (the 56 tables of test_catalogue_scans_each_high_part_once),
    so the catalogue makes no left division; it made 160, one per upper-half divisor."""
    import skewcodes.skewpoly as skewpoly

    divisions = []
    left_divide = skewpoly._left_divide

    def counted_left_divide(*args):
        divisions.append(args)
        return left_divide(*args)

    monkeypatch.setattr(skewpoly, "_left_divide", counted_left_divide)
    code, _ = run(capsys, "catalogue", "--ring", "4", "--sigma", "0", "--m", "4")
    assert (code, len(divisions)) == (0, 0)


def test_catalogue_divisor_cap_exceeded(capsys):
    """GF(4), m = 4, constacyclic, --cap 3: the 3 candidates fit, the 4 degree-1
    divisor candidates do not, so the batch divisor scan exits 2."""
    code = main(["catalogue", "--field", "2,2", "--sigma", "1", "--m", "4",
                 "--constacyclic", "--cap", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: 4^1 candidate divisors exceed cap 3\n"


CAP_BEFORE_SCAN = [
    (("--field", "2,2", "--sigma", "1", "--m", "6", "--cap", "16"),
     "4^3 candidate divisors exceed cap 16"),
    (("--field", "2,8", "--m", "400"), "256^3 candidate divisors exceed cap 1048576"),
]


@pytest.mark.parametrize("argv,message", CAP_BEFORE_SCAN, ids=["GF(4) m=6", "GF(256) m=400"])
def test_catalogue_divisor_caps_checked_before_any_scan(capsys, monkeypatch, argv, message):
    """Constacyclic: the candidates fit, and so do the divisor scans of degrees
    1 and 2, but not those of degree 3.  The batch checks every degree against
    the cap before its first scan, so it exits 2 with no scan run, naming the
    least degree over the cap."""
    import skewcodes.skewpoly as skewpoly

    scans = []
    table = skewpoly.monic_right_divisor_table

    def counted_table(tw, degree, high, lows, cap):
        scans.append(degree)
        return table(tw, degree, high, lows, cap)

    monkeypatch.setattr(skewpoly, "monic_right_divisor_table", counted_table)
    code = main(["catalogue", *argv, "--constacyclic"])
    assert (code, scans) == (2, [])
    assert capsys.readouterr().err == f"error: {message}\n"


def test_catalogue_divisor_cap_checked_before_any_norm_row(capsys, monkeypatch):
    """GF(256), m = 400, constacyclic: the 255 candidates fit but the degree-3
    divisor scans do not, and the catalogue exits 2 before it builds the
    partition's _Orbits, so classify._scales never runs."""
    import skewcodes.classify as classify

    calls = []
    scales = classify._scales

    def counted_scales(*args):
        calls.append(args)
        return scales(*args)

    monkeypatch.setattr(classify, "_scales", counted_scales)
    code = main(["catalogue", "--field", "2,8", "--m", "400", "--constacyclic"])
    assert (code, calls) == (2, [])
    assert capsys.readouterr().err == "error: 256^3 candidate divisors exceed cap 1048576\n"


def test_catalogue_gf8_sigma2_m3_bytes(capsys):
    """GF(8), sigma = x -> x^4, m = 3, all 512 monic candidates: |Aut| = 3, so the
    tau-images of a Chen class can coincide; 32 lines with the two-pass orbits' bytes."""
    code, out = run(capsys, "catalogue", "--field", "2,3", "--sigma", "2", "--m", "3")
    assert code == 0
    assert len(out.splitlines()) == 32
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a467edd0a18bd6b47b042720d1a603b96738582ff871b7826758ead3e0f68b2b"
    )


BENCH_CATALOGUES = [
    (("--field", "3,2,2,1,1", "--sigma", "1", "--m", "3"), 55,
     "c812de072fa5cd3d8095f3507fffb2f67f6affe9482d33f87f45c5d7f21c120b"),
    (("--field", "2,2,1,1,1", "--sigma", "1", "--m", "7", "--constacyclic"), 1,
     "6e13ca56c6a6f9646a51489aa4f3ef72b3a7919c4ae37f74f181bbd6a3f83882"),
    (("--field", "3,2,2,1,1", "--sigma", "1", "--m", "4", "--constacyclic"), 5,
     "481501e5bbf4fa01e5d6203abc7d446a5f159be02eed79d48ad9bbc445be359a"),
]


@pytest.mark.parametrize("argv,count,digest", BENCH_CATALOGUES,
                         ids=["GF(9) m=3", "GF(4) m=7 constacyclic", "GF(9) m=4 constacyclic"])
def test_catalogue_bench_config_bytes(capsys, argv, count, digest):
    """The benchmark's other catalogue configs, at the modulus x^2 + x + 2 for
    GF(9): the bytes of the catalogue built from record dicts."""
    code, out = run(capsys, "catalogue", *argv)
    assert code == 0
    assert len(out.splitlines()) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_catalogue_computes_each_generator_once(capsys, monkeypatch):
    """Z_4, m = 4: 656 codes over 160 classes, 81 distinct generators but 56
    classes of generators (orbits under the classify._Orbits of each
    generator's degree), so the minimum distance runs 56 times: the isometry
    t -> alpha*t twisted by tau maps the code of g onto the code of each
    member of g's class, preserving Hamming weight (catalogue._codes_for).  The code spans never read f, so no
    PetitAlgebra is built."""
    import skewcodes.catalogue as catalogue
    from skewcodes.petit import PetitAlgebra

    calls = {"min_distance": 0, "algebra": 0}
    min_distance, init = catalogue._min_distance, PetitAlgebra.__init__

    def counted_min_distance(*args, **kwargs):
        calls["min_distance"] += 1
        return min_distance(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["algebra"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(catalogue, "_min_distance", counted_min_distance)
    monkeypatch.setattr(PetitAlgebra, "__init__", counted_init)
    code, out = run(capsys, "catalogue", "--ring", "4", "--sigma", "0", "--m", "4")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 160
    assert sum(len(rec["codes"]) for rec in records) == 656
    assert calls["min_distance"] == 56
    assert calls["algebra"] == 0


def test_catalogue_min_distance_once_per_tau_orbit(capsys, monkeypatch):
    """GF(8), sigma = Frobenius, m = 4: 273 distinct generators fall into 41
    classes under all three automorphisms tau (85 under tau = id alone), and the
    minimum distance runs once per class."""
    import skewcodes.catalogue as catalogue

    calls = []
    min_distance = catalogue._min_distance
    monkeypatch.setattr(catalogue, "_min_distance",
                        lambda *args: calls.append(1) or min_distance(*args))
    code, out = run(capsys, "catalogue", "--field", "2,3", "--sigma", "1", "--m", "4")
    assert code == 0
    assert len(out.splitlines()) == 208
    assert len(calls) == 41


PINNED_CATALOGUES = [
    (("--field", "2,3", "--sigma", "1", "--m", "4"), 208,
     "ce1c77a5c227865b1e356aa7119d9910ee4f50578d08c244a36a863e7623ee9e"),
    (("--ring", "8", "--sigma", "0", "--m", "4"), 1408,
     "946c4a8a929987262673d9c16d62f1c0031663d778fc41d9327ac15f2ff7dbcf"),
    (("--field", "2,2", "--sigma", "1", "--m", "5"), 192,
     "f94dc50f831c4b2dcfa2728aecdc08b38a233d4e40381d3744c8e1c68a179ec2"),
]


REACH_CATALOGUES = [
    (("--field", "2,2,1,1,1", "--sigma", "1", "--m", "12", "--constacyclic"), 2,
     "7e40164c3cd5853a5b63f484ad0e0dcb6316d6bb087432873b24eb0ebb647794"),
    (("--field", "2,2,1,1,1", "--sigma", "1", "--m", "14", "--constacyclic"), 2,
     "ec425aa9ed443574bdb697a70bc9da70bb44dfbdfd1e110ce48c1e064ea289e3"),
]


@pytest.mark.parametrize("argv,count,digest", REACH_CATALOGUES,
                         ids=["GF(4) Frobenius m=12 constacyclic",
                              "GF(4) Frobenius m=14 constacyclic"])
def test_catalogue_reach_bytes(capsys, argv, count, digest):
    """Constacyclic GF(4) catalogues at the degrees where minimum distance
    dominates, each code's distance read once per class of its generator."""
    code, out = run(capsys, "catalogue", *argv)
    assert code == 0
    assert len(out.splitlines()) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,count,digest", PINNED_CATALOGUES,
                         ids=["GF(8) sigma m=4", "Z_8 m=4", "GF(4) Frobenius m=5"])
def test_catalogue_pinned_bytes(capsys, argv, count, digest):
    """Catalogues whose divisor lists take the psi-halved upper half under
    sigma^-1 != sigma (GF(8)), over Z_8, whose even elements are zero divisors,
    and at an odd degree (GF(4), m = 5): the bytes that SkewPoly divisor lists,
    PetitAlgebra spans and per-class norm scales gave."""
    code, out = run(capsys, "catalogue", *argv)
    assert code == 0
    assert len(out.splitlines()) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest
