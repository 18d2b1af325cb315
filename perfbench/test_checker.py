#!/usr/bin/env python3
"""Tests of the benchmark's output checker (pbtool check).

Each test writes a small labelled input and a program-shaped output
(type<t>.csv tables plus noise.txt), then runs the checker. The correct
output must pass; every corruption of it must fail.

    python3 perfbench/test_checker.py
"""

import os
import shutil
import subprocess
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
NOISE = 127
START = 0x80

# Lines of the input: (text, format or NOISE, starts a record).
INPUT = [
    ("a=1,2;b=x", 0, True),
    ("k 7 z", 1, True),
    ("begin 1", 2, True),
    ("end 1", 2, False),
    ("noise", NOISE, False),
    ("a=3;b=y", 0, True),
    ("m 8 w", 1, True),
    ("begin 2", 2, True),
    ("end 2", 2, False),
]

CORRECT = {
    "templates": ["F=F;F=F\\n", "F F F\\n", "F F\\nF F\\n"],
    "tables": [
        [["a", "1,2", "b", "x"], ["a", "3", "b", "y"]],
        [["k", "7", "z"], ["m", "8", "w"]],
        [["begin", "1", "end", "1"], ["begin", "2", "end", "2"]],
    ],
    "noise": ["noise"],
}


def csv_cell(v):
    if any(c in v for c in ',"\n\r'):
        return '"' + v.replace('"', '""') + '"'
    return v


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="pbtool-test-")
        cls.pbtool = os.path.join(cls.tmp, "pbtool")
        subprocess.run(["c++", "-O1", "-std=c++20", "-o", cls.pbtool,
                        os.path.join(HERE, "pbtool.cc")], check=True)
        cls.input = os.path.join(cls.tmp, "in.log")
        cls.labels = os.path.join(cls.tmp, "in.lab")
        with open(cls.input, "w") as f:
            f.write("".join(t + "\n" for t, _, _ in INPUT))
        with open(cls.labels, "wb") as f:
            f.write(bytes(fmt | (START if s else 0) for _, fmt, s in INPUT))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def check(self, output, name, late_bound=-1):
        out = os.path.join(self.tmp, name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        tpl = os.path.join(out, "templates.txt")
        with open(tpl, "w") as f:
            f.write("".join(t + "\n" for t in output["templates"]))
        for t, rows in enumerate(output["tables"]):
            width = len(rows[0])
            with open(os.path.join(out, "type%d.csv" % t), "w") as f:
                f.write(",".join("f%d" % i for i in range(width)) + "\n")
                for row in rows:
                    f.write(",".join(csv_cell(v) for v in row) + "\n")
        with open(os.path.join(out, "noise.txt"), "w") as f:
            f.write("".join(n + "\n" for n in output["noise"]))
        jobs = os.path.join(out, "jobs.tsv")
        with open(jobs, "w") as f:
            f.write("\t".join([self.input, self.labels, tpl, out,
                               str(late_bound)]) + "\n")
        res = subprocess.run([self.pbtool, "check", jobs], check=True,
                             stdout=subprocess.PIPE).stdout.decode().strip()
        return res

    def corrupt(self, **changes):
        out = {"templates": list(CORRECT["templates"]),
               "tables": [[list(r) for r in t] for t in CORRECT["tables"]],
               "noise": list(CORRECT["noise"])}
        out.update(changes)
        return out

    def test_correct_output_passes(self):
        res = self.check(CORRECT, "correct")
        self.assertTrue(res.startswith("OK "), res)
        self.assertIn("rows=2,2,2 noise=1 late=0", res)

    def test_dropped_row_fails(self):
        out = self.corrupt()
        del out["tables"][1][1]
        res = self.check(out, "dropped")
        self.assertTrue(res.startswith("FAIL "), res)
        self.assertIn("neither the next row", res)

    def test_swapped_cell_fails(self):
        out = self.corrupt()
        row = out["tables"][0][1]
        row[1], row[3] = row[3], row[1]
        res = self.check(out, "swapped")
        self.assertTrue(res.startswith("FAIL "), res)

    def test_dropped_noise_line_fails(self):
        res = self.check(self.corrupt(noise=[]), "no-noise")
        self.assertTrue(res.startswith("FAIL "), res)

    def test_merged_formats_fail(self):
        # One array template renders both single-line formats losslessly,
        # so only the ground-truth mapping can catch the merge.
        out = self.corrupt(
            templates=["(F )*F\\n", "F F\\nF F\\n"],
            tables=[[["a=1,2;b=x"], ["k 7 z"], ["a=3;b=y"], ["m 8 w"]],
                    CORRECT["tables"][2]])
        res = self.check(out, "merged")
        self.assertTrue(res.startswith("FAIL "), res)
        self.assertIn("mixes ground-truth formats", res)

    def test_split_multiline_record_fails(self):
        out = self.corrupt(
            templates=["F=F;F=F\\n", "F F F\\n", "F F\\n"],
            tables=[CORRECT["tables"][0], CORRECT["tables"][1],
                    [["begin", "1"], ["end", "1"], ["begin", "2"],
                     ["end", "2"]]])
        res = self.check(out, "split")
        self.assertTrue(res.startswith("FAIL "), res)
        self.assertIn("splits a longer ground-truth record", res)

    def test_record_left_as_noise(self):
        out = self.corrupt(noise=["noise", "m 8 w"])
        out["tables"][1] = out["tables"][1][:1]
        self.assertTrue(self.check(out, "late").startswith("FAIL "))
        # A streaming run may leave a bounded number of record lines as
        # noise before its template set evolves.
        res = self.check(out, "late-ok", late_bound=1)
        self.assertTrue(res.startswith("OK "), res)
        self.assertIn("late=1", res)
        res = self.check(out, "late-over", late_bound=0)
        self.assertTrue(res.startswith("FAIL "), res)


if __name__ == "__main__":
    unittest.main()
