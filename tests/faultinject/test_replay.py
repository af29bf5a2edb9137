"""The replay core both fault harnesses share: the signature bytes each
report hashes, the ``a × b`` violation labels, and the run-twice CLI."""

import hashlib

from repro.faultinject.replay import (
    ReplayReport,
    ReplayResult,
    run_and_report,
)


def _report(signed=()):
    return ReplayReport(seed=1, signed=signed, results=[
        ReplayResult(("a", "s"), "done", "f00d",
                     counts={"faults": 2, "resumes": 3}),
        ReplayResult(("b", "s"), "raised:X", "beef",
                     counts={"faults": 5, "resumes": 0},
                     violations=["leaked a lock"]),
    ])


def test_signature_hashes_one_line_per_result():
    expected = hashlib.sha256(b"a:s:done:f00d" b"b:s:raised:X:beef")
    assert _report().signature() == expected.hexdigest()


def test_signed_counts_end_each_line():
    expected = hashlib.sha256(b"a:s:done:f00d:3" b"b:s:raised:X:beef:0")
    assert _report(signed=("resumes",)).signature() \
        == expected.hexdigest()


def test_violations_are_labelled_by_key():
    report = _report()
    assert report.violations == ["b × s: leaked a lock"]
    assert not report.clean
    assert report.total("faults") == 7
    assert [r.ok for r in report.results] == [True, False]


def test_run_and_report_checks_determinism(capsys):
    runs = iter(["f00d", "f00d", "beef", "cafe"])

    def replay():
        return ReplayReport(seed=1, results=[
            ReplayResult(("a", "s"), "done", next(runs))])

    def summary(report):
        return f"{len(report.results)} replays"

    assert run_and_report("demo", replay, summary, str, verbose=False,
                          check_determinism=True) == 0
    assert run_and_report("demo", replay, summary, str, verbose=False,
                          check_determinism=True) == 1
    out = capsys.readouterr().out.splitlines()
    first = hashlib.sha256(b"a:s:done:f00d").hexdigest()
    assert out == [
        "demo: 1 replays",
        f"demo: determinism check passed (signature {first[:16]}…)",
        "demo: 1 replays",
        "demo: NONDETERMINISM: second replay produced a different "
        "signature",
    ]
