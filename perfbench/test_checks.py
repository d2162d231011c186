#!/usr/bin/env python3
"""Tests of the benchmark's answer checks and statistics: a wrong verdict,
a wrong cover digest or a wrong final cover must raise the failed count
(and so failed_ratio) instead of passing or aborting the run.

    python3 perfbench/test_checks.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def reply(**fields):
    return json.dumps({"ok": True, **fields}).encode()


class ReadChecks(unittest.TestCase):
    kinds = ["q", "q", "c", "q"]
    verdicts = "10-0"
    pull = b'{"ok": true, "epoch": 0, "cover": ["V([a] -> [b])"]}'

    def replies(self):
        return {
            0: (1e-4, reply(propagates=True, epoch=0)),
            1: (1e-4, reply(propagates=False, epoch=0)),
            2: (2e-4, run.sha(self.pull)),
            3: (1e-4, reply(propagates=False, epoch=0)),
        }

    def test_right_answers_pass(self):
        self.assertEqual(run.check_read(self.kinds, self.replies(), self.verdicts, run.sha(self.pull)), 0)

    def test_wrong_verdict_counts(self):
        wrong = self.replies()
        wrong[1] = (1e-4, reply(propagates=True, epoch=0))
        self.assertEqual(run.check_read(self.kinds, wrong, self.verdicts, run.sha(self.pull)), 1)

    def test_error_reply_counts(self):
        wrong = self.replies()
        wrong[3] = (1e-4, b'{"ok": false, "error": "no session b"}')
        self.assertEqual(run.check_read(self.kinds, wrong, self.verdicts, run.sha(self.pull)), 1)

    def test_wrong_cover_digest_counts(self):
        self.assertEqual(run.check_read(self.kinds, self.replies(), self.verdicts, run.sha(b"other")), 1)


class CoverChecks(unittest.TestCase):
    pinned = {"cover_stdout": {"y25-v40-s1000": run.sha(b"cfd V([a] -> [b]);\n")}}

    def test_pinned_digest(self):
        self.assertEqual(run.check_cover_output("y25-v40-s1000", b"cfd V([a] -> [b]);\n", self.pinned), 0)
        self.assertEqual(run.check_cover_output("y25-v40-s1000", b"cfd V([a] -> [c]);\n", self.pinned), 1)
        self.assertEqual(run.check_cover_output("unpinned", b"", self.pinned), 1)


class ChurnChecks(unittest.TestCase):
    expected = {"cover": ["V([a] -> [b])"], "complete": True, "always_empty": False}

    def test_final_cover(self):
        replies = {0: (1e-3, reply(plan="patched")), 1: (1e-4, reply(propagates=True))}
        final = reply(epoch=1, **self.expected)
        self.assertEqual(run.check_churn(replies, final, self.expected), 0)
        other = reply(epoch=1, cover=["V([a] -> [c])"], complete=True, always_empty=False)
        self.assertEqual(run.check_churn(replies, other, self.expected), 1)

    def test_error_reply_counts(self):
        replies = {0: (1e-3, b'{"ok": false, "error": "bad CFD"}')}
        self.assertEqual(run.check_churn(replies, reply(**self.expected), self.expected), 1)


class Statistics(unittest.TestCase):
    def test_median_and_tail(self):
        xs = [5.0, 1.0, 3.0, 9.0, 3.0, 1.0, 5.0, 3.0, 5.0]
        # ranks ceil(4.5) = 5 and ceil(7.2) = 8 of [1,1,3,3,3,5,5,5,9]
        self.assertEqual(run.summarise(xs, 0.8), (3.0, 5.0, 9, 1))


if __name__ == "__main__":
    unittest.main()
