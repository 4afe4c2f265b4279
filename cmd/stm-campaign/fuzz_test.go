package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// tinyArgs give every subcommand's size flags small values, so that a
// generated command line runs in milliseconds whichever flags it adds.
var tinyArgs = map[string][]string{
	"matrix":      {"-t", "1", "-k", "1", "-n", "2", "-posbudget", "64", "-negbudget", "64", "-workers", "2"},
	"fuzz":        {"-n", "3", "-steps", "8", "-schedules", "4", "-workers", "2"},
	"exhaustive":  {"-n", "2", "-depth", "4", "-workers", "2"},
	"converge":    {"-n", "3", "-k", "1", "-t", "1", "-trials", "2", "-maxsteps", "64", "-workers", "2"},
	"relations":   {"-n", "3", "-steps", "16", "-schedules", "2", "-workers", "2"},
	"adversarial": {"-n", "3", "-runs", "2", "-steps", "64", "-workers", "2"},
	"byzantine":   {"-n", "3", "-runs", "1", "-steps", "16", "-workers", "2"},
	"netconv":     {"-n", "3", "-runs", "1", "-steps", "16", "-workers", "2"},
	"monitor":     {"-n", "3", "-steps", "16"},
}

// fuzzStrings are the values a generated string flag takes, valid and not.
// No -chaos value crashes the coordinator (that exits 4).
var fuzzStrings = map[string][]string{
	"target":     {"commitadopt", "consensus", "cachain", "kset", "bg", "antiomega", "bogus", ""},
	"gen":        {"random", "starver", "mixed", "bogus", ""},
	"matrices":   {"", "sync", "psync", "async", "mixed", "sync,mixed", "bogus", ",,"},
	"strategies": {"flip", "stale", "split", "none", "flip,stale", "bogus", ""},
	"crashes":    {"", "p1@3", "p1@0;p2@1", "p9@1", "p1=3", "p0@-1", "p1@3,p2@x"},
	"chaos":      {"", "kill@1", "kill@2", "stall@0~2ms", "delay@1~1ms", "kill@1;delay@0~1ms", "explode@1"},
	"lease":      {"0", "1ns", "1ms", "-1s", "1m", "bogus"},
}

// fuzzRanges are the values of the value-or-range flags.
var fuzzRanges = []string{"0", "1", "2", "3", "4", "0:1", "0:2", "1:2", "3:1", "-1:1", "x", ""}

// fuzzValue decodes one generated value of the named flag from b; paths
// lie in dir. -workers stays at most 4 and -procs at most 0, so no input
// starts a worker process.
func fuzzValue(f *flag.Flag, b byte, dir string) string {
	switch f.Name {
	case "workers":
		return strconv.Itoa(int(b%6) - 1)
	case "procs":
		return strconv.Itoa(-int(b % 3))
	case "seed":
		return strconv.Itoa(int(int8(b)))
	case "jsonl", "checkpoint":
		return filepath.Join(dir, f.Name)
	case "t", "k", "n", "crash", "byz":
		if g, ok := f.Value.(flag.Getter); ok {
			if _, ok := g.Get().(string); ok { // a value or lo:hi range
				return fuzzRanges[int(b)%len(fuzzRanges)]
			}
		}
	}
	if vs, ok := fuzzStrings[f.Name]; ok {
		return vs[int(b)%len(vs)]
	}
	if _, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
		return strconv.FormatBool(b%2 == 1)
	}
	return strconv.Itoa(int(b%12) - 3) // every other flag is an int
}

// FuzzArgs runs execute in process on generated command lines: pick
// chooses the subcommand, and each pair of data bytes one of its flags
// (never -pprof) and a value, appended to tinyArgs. No input may panic; the
// exit code must be 0..3, and a usage error (2) must print nothing on
// stdout and leave no file behind. The generator follows the
// small-parameter strategy of arXiv:2112.08826: every size stays tiny.
func FuzzArgs(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(1), []byte{7, 1, 9, 0})
	f.Add(uint8(2), []byte{3, 5, 9, 1})
	f.Add(uint8(6), []byte{0, 4, 11, 2})
	f.Add(uint8(7), []byte{5, 2, 6, 7})
	f.Add(uint8(8), []byte{2, 1, 3, 0})
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		cmd := commands[int(pick)%len(commands)]
		var flags []*flag.Flag
		flagSet(cmd).VisitAll(func(f *flag.Flag) {
			if f.Name != "pprof" {
				flags = append(flags, f)
			}
		})
		dir := t.TempDir()
		args := append([]string(nil), tinyArgs[cmd.name]...)
		for ; len(data) >= 2 && len(args) < 48; data = data[2:] {
			fl := flags[int(data[0])%len(flags)]
			args = append(args, "-"+fl.Name+"="+fuzzValue(fl, data[1], dir))
		}
		var out bytes.Buffer
		err := execute(context.Background(), cmd.name, args, &out)
		switch code := exitCode("stm-campaign", err); {
		case code < exitOK || code > exitDegraded:
			t.Fatalf("%s %v: exit %d (%v)", cmd.name, args, code, err)
		case code == exitUsage:
			if out.Len() != 0 {
				t.Fatalf("%s %v: a usage error printed a report:\n%s", cmd.name, args, out.String())
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Fatalf("%s %v: a usage error left %d file(s)", cmd.name, args, len(entries))
			}
		}
	})
}
