package charset

import (
	"math/rand"
	"testing"
	"unicode/utf8"
)

// checkAgainstOracle feeds b to d and to a fresh reference detector in
// the same chunks and fails unless the verdict, the bytes scanned and
// the early-exit flag all agree. Scanned depends on the chunking once a
// conclusive hit ends the scan mid-window, so both sides get the same
// cuts; the verdict must also equal the reference one-shot verdict.
func checkAgainstOracle(t *testing.T, d *Detector, b []byte, oneShot Result, cuts ...int) {
	t.Helper()
	d.Reset()
	o := newOracleDetector()
	prev := 0
	for _, c := range append(cuts, len(b)) {
		d.Feed(b[prev:c])
		o.feed(b[prev:c])
		prev = c
	}
	want := o.best()
	if got := d.Best(); got != want || got != oneShot || d.Scanned() != o.scanned || d.Done() != o.done {
		t.Fatalf("% X\ncut at %v: got %+v scanned %d done %v, oracle %+v scanned %d done %v, one-shot %+v",
			b, cuts, got, d.Scanned(), d.Done(), want, o.scanned, o.done, oneShot)
	}
}

// TestDetectMatchesOracle is the differential proof for the production
// detector: 10 000 seeded random buffers, built to hit the cases each
// prober decides on, must get the reference detector's verdict at every
// chunking tried. Buffers up to 600 bytes are cut at every split point;
// longer ones, which cross the early-exit check windows, at every point
// within a byte of a window boundary plus random two- and three-piece
// cuts. The race detector's slowdown gets a tenth of the buffers.
func TestDetectMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := NewDetector()
	buffers := 10000
	if raceEnabled {
		buffers = 1000
	}
	for n := 0; n < buffers; n++ {
		b := randomDetectBuffer(r)
		want, _ := oracleDetect(b)
		if len(b) <= 600 {
			for i := 0; i <= len(b); i++ {
				checkAgainstOracle(t, d, b, want, i)
			}
			continue
		}
		for w := 0; w <= len(b); w += 1024 {
			for i := w - 1; i <= w+1; i++ {
				if i >= 0 && i <= len(b) {
					checkAgainstOracle(t, d, b, want, i)
				}
			}
		}
		for k := 0; k < 4; k++ {
			i := r.Intn(len(b) + 1)
			j := i + r.Intn(len(b)-i+1)
			checkAgainstOracle(t, d, b, want, i)
			checkAgainstOracle(t, d, b, want, i, j)
		}
	}
}

// FuzzDetectOracle drives the same differential check with arbitrary
// input and an arbitrary split point.
func FuzzDetectOracle(f *testing.F) {
	for _, b := range splitCorpus() {
		f.Add(b, len(b)/2)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		b := randomDetectBuffer(r)
		f.Add(b, r.Intn(len(b)+1))
	}
	d := NewDetector()
	f.Fuzz(func(t *testing.T, b []byte, split int) {
		split = int(uint(split) % uint(len(b)+1))
		want, _ := oracleDetect(b)
		checkAgainstOracle(t, d, b, want, split)
	})
}

// randomDetectBuffer builds a buffer from pieces weighted toward what
// the probers branch on: ASCII runs, ESC designations and near-misses,
// NULs and byte-order marks, Thai-block bytes with NBSP and windows-874
// punctuation, Shift_JIS and EUC-JP pairs, UTF-8 sequences, stray bytes
// and encoded sample text. One buffer in five is long and mostly sample
// text in one charset, so stable leaders form and the early-exit checks
// fire, unless a stray piece breaks the run.
func randomDetectBuffer(r *rand.Rand) []byte {
	var b []byte
	if r.Intn(8) == 0 {
		b = append(b, [][]byte{{0xFF, 0xFE}, {0xFE, 0xFF}, {0xFF}, {0xFE}}[r.Intn(4)]...)
	}
	if r.Intn(5) != 0 {
		for size := 1 + r.Intn(200); len(b) < size; {
			b = appendPiece(r, b, r.Intn(10))
		}
		return b
	}
	cs := sampleCharsets[r.Intn(len(sampleCharsets))]
	for size := 600 + r.Intn(2600); len(b) < size; {
		switch k := r.Intn(40); {
		case k == 0:
			b = appendPiece(r, b, r.Intn(10))
		case k < 4:
			b = appendPiece(r, b, 0)
		default:
			b = appendSample(r, b, cs)
		}
	}
	return b
}

// sampleCharsets are the encodings sample text is written in.
var sampleCharsets = []Charset{EUCJP, ShiftJIS, UTF8, TIS620, Windows874, ISO885911, Latin1, ASCII}

// appendSample appends a random run of the Japanese, Thai or French
// sample text encoded in cs (unmappable runes become '?').
func appendSample(r *rand.Rand, b []byte, cs Charset) []byte {
	text := []rune([]string{jaSample, thSample, frSample, enSample}[r.Intn(4)])
	switch cs {
	case TIS620, Windows874, ISO885911:
		text = []rune(thSample)
	case EUCJP, ShiftJIS:
		text = []rune(jaSample)
	}
	i := r.Intn(len(text))
	j := i + 1 + r.Intn(len(text)-i)
	return AppendEncode(CodecFor(cs), b, string(text[i:j]))
}

func appendPiece(r *rand.Rand, b []byte, kind int) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ <>=\"/.,\n0123456789"
	switch kind {
	case 0: // ASCII run
		for n := 1 + r.Intn(40); n > 0; n-- {
			b = append(b, letters[r.Intn(len(letters))])
		}
	case 1: // escape designations, decoys and fragments
		escs := [][]byte{{0x1B, '$', 'B'}, {0x1B, '$', '@'}, {0x1B, '(', 'J'}, {0x1B, '(', 'B'},
			{0x1B}, {0x1B, '$'}, {0x1B, '('}, {0x1B, 0x1B, '$'}, {0x1B, '$', 0x1B, '(', 'J'}, {0x1B, 'x'}}
		b = append(b, escs[r.Intn(len(escs))]...)
	case 2: // NULs: UTF-16-shaped text or stray zeros
		for n := 1 + r.Intn(20); n > 0; n-- {
			c := letters[r.Intn(26)]
			switch r.Intn(3) {
			case 0:
				b = append(b, c, 0)
			case 1:
				b = append(b, 0, c)
			default:
				b = append(b, 0)
			}
		}
	case 3: // Thai block, with NBSP and windows-874 punctuation
		for n := 1 + r.Intn(60); n > 0; n-- {
			switch r.Intn(20) {
			case 0:
				b = append(b, 0xA0)
			case 1:
				b = append(b, []byte{0x80, 0x85, 0x91, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97}[r.Intn(9)])
			case 2:
				b = append(b, ' ')
			default:
				b = append(b, byte(0xA1+r.Intn(0xFB-0xA1+1)))
			}
		}
	case 4: // Shift_JIS pairs and half-width katakana
		for n := 1 + r.Intn(30); n > 0; n-- {
			switch r.Intn(6) {
			case 0:
				b = append(b, byte(0xA1+r.Intn(0xDF-0xA1+1)))
			case 1:
				b = append(b, byte(0xE0+r.Intn(16)), byte(0x40+r.Intn(0xFC-0x40+1)))
			default:
				b = append(b, []byte{0x82, 0x83, 0x81, 0x93}[r.Intn(4)], byte(0x40+r.Intn(0xFC-0x40+1)))
			}
		}
	case 5: // EUC-JP pairs, code set 2 katakana
		for n := 1 + r.Intn(30); n > 0; n-- {
			switch r.Intn(6) {
			case 0:
				b = append(b, 0x8E, byte(0xA1+r.Intn(0xDF-0xA1+1)))
			case 1:
				b = append(b, byte(0xA1+r.Intn(0xFE-0xA1+1)), byte(0xA1+r.Intn(0xFE-0xA1+1)))
			default:
				b = append(b, []byte{0xA4, 0xA5, 0xA1, 0xC6}[r.Intn(4)], byte(0xA1+r.Intn(0xFE-0xA1+1)))
			}
		}
	case 6: // UTF-8, mostly valid
		for n := 1 + r.Intn(20); n > 0; n-- {
			ranges := []int{0x80, 0x800, 0x3040, 0x0E00, 0x10000, 0x10FFFF}
			b = utf8.AppendRune(b, rune(ranges[r.Intn(len(ranges))]+r.Intn(0x60)))
			if r.Intn(15) == 0 {
				b = b[:len(b)-1]
			}
		}
	case 7: // Latin-1 letters in western text
		for n := 1 + r.Intn(30); n > 0; n-- {
			if r.Intn(4) == 0 {
				b = append(b, byte(0xC0+r.Intn(64)))
			} else {
				b = append(b, letters[r.Intn(52)])
			}
		}
	case 8: // stray bytes anywhere in 0..255
		for n := 1 + r.Intn(4); n > 0; n-- {
			b = append(b, byte(r.Intn(256)))
		}
	default:
		b = appendSample(r, b, sampleCharsets[r.Intn(len(sampleCharsets))])
	}
	return b
}
