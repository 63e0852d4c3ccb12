from sl4cube.report import FAIL, PASS, SKIPPED, Report, completes


def test_report_check_first_witness_wins():
    rep = Report()
    assert not rep.check("a", "anchor", 1, iter(["first", "second"]))
    assert rep.checks[-1].status == FAIL and rep.checks[-1].witness == "first"


def test_report_check_empty_iterable_passes():
    rep = Report()
    assert rep.check("a", "anchor", None, [])
    assert rep.checks[-1].status == PASS and rep.checks[-1].witness is None


def test_report_check_exception_is_a_failure():
    def failures():
        raise ArithmeticError("ideal 0 has dimension 1, expected 9")
        yield

    rep = Report()
    assert not rep.check("a", "anchor", 2, failures())
    assert rep.checks[-1].status == FAIL
    assert rep.checks[-1].witness == "ArithmeticError: ideal 0 has dimension 1, expected 9"


def test_report_check_stops_at_first_witness():
    drawn = []

    def failures():
        for k in range(5):
            drawn.append(k)
            if k == 1:
                yield f"k={k}"

    Report().check("a", "anchor", 0, failures())
    assert drawn == [0, 1]


def test_report_check_skip_never_runs_the_body():
    ran = []

    def failures():
        ran.append(True)
        raise ArithmeticError("must not run")
        yield

    rep = Report()
    assert rep.check("a", "anchor", 4, failures(), skip="N > 3 (oracle cap)") is None
    assert not ran
    [row] = rep.checks
    assert (row.status, row.witness) == (SKIPPED, None)
    assert row.anchor == "anchor [skipped: N > 3 (oracle cap)]"
    assert rep.passed and not rep.failures


def test_report_check_skip_none_is_the_plain_check():
    plain, explicit = Report(), Report()
    assert plain.check("a", "anchor", 1, iter(["w"])) is explicit.check("a", "anchor", 1, iter(["w"]), skip=None) is False
    assert plain.check("b", "anchor", 1, []) is explicit.check("b", "anchor", 1, [], skip=None) is True
    assert plain.checks == explicit.checks


def test_completes_certifies_by_returning_and_fails_on_a_raise():
    calls = []
    rep = Report()
    failures = completes(lambda: calls.append(1))
    assert calls == []  # nothing runs until the check draws from it
    assert rep.check("ok", "anchor", 1, failures) and calls == [1]

    def broken():
        raise ArithmeticError("rank 2 of 3")
    assert not rep.check("raises", "anchor", 1, completes(broken))
    assert rep.checks[-1].witness == "ArithmeticError: rank 2 of 3"
