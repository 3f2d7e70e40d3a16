package charset

// The reference detector: a frozen copy of the composite detector as it
// stood before the one-walk rewrite — ten independent probers behind one
// interface, each looping over every byte of every window. It is kept
// verbatim (renamed, and with its own copies of the constants and
// tables the rewrite restructured, and without the reset methods a
// one-shot reference does not need) so the differential test and
// FuzzDetectOracle can prove the production Detector gives the same
// Result, Scanned and Done on any input and any chunking. Do not
// optimise it: its value is that it is obviously the old algorithm.

const (
	oracleCheckWindow         = 1024
	oracleEarlyExitConfidence = 0.85
	oracleStableWindows       = 2
)

type oracleProber interface {
	charset() Charset
	feed(b []byte) probeState
	confidence() float64
}

type oracleDetector struct {
	probers []oracleProber
	alive   []bool

	done      bool
	scanned   int64
	nextCheck int64
	leader    Charset
	leaderRun int
}

func newOracleDetector() *oracleDetector {
	d := &oracleDetector{probers: []oracleProber{
		&oracleBOM{}, &oracleESC{}, &oracleUTF8{}, &oracleEUCJP{}, &oracleSJIS{},
		&oracleThai{cs: TIS620}, &oracleThai{cs: Windows874}, &oracleThai{cs: ISO885911},
		&oracleASCII{}, &oracleLatin1{},
	}}
	d.alive = make([]bool, len(d.probers))
	for i := range d.alive {
		d.alive[i] = true
	}
	d.nextCheck = oracleCheckWindow
	d.leader = Unknown
	return d
}

// oracleDetect is the reference one-shot verdict for b.
func oracleDetect(b []byte) (Result, ScanInfo) {
	d := newOracleDetector()
	d.feed(b)
	return d.best(), ScanInfo{Scanned: d.scanned, EarlyExit: d.done}
}

func (d *oracleDetector) feed(b []byte) {
	for len(b) > 0 && !d.done {
		n := int64(len(b))
		if rem := d.nextCheck - d.scanned; rem < n {
			n = rem
		}
		d.feedAll(b[:n])
		d.scanned += n
		b = b[n:]
		if d.done {
			return
		}
		if d.scanned == d.nextCheck {
			d.nextCheck += oracleCheckWindow
			d.checkStable()
		}
	}
}

func (d *oracleDetector) feedAll(b []byte) {
	for i, p := range d.probers {
		if !d.alive[i] {
			continue
		}
		switch p.feed(b) {
		case foundIt:
			d.done = true
			return
		case notMe:
			d.alive[i] = false
		}
	}
}

func (d *oracleDetector) checkStable() {
	best := d.best()
	if best.Confidence < oracleEarlyExitConfidence {
		d.leader = Unknown
		d.leaderRun = 0
		return
	}
	if best.Charset == d.leader {
		d.leaderRun++
	} else {
		d.leader = best.Charset
		d.leaderRun = 1
	}
	if d.leaderRun >= oracleStableWindows {
		d.done = true
	}
}

func (d *oracleDetector) best() Result {
	best := Result{Charset: Unknown, Language: LangUnknown}
	for _, p := range d.probers {
		c := p.confidence()
		if c > best.Confidence {
			best = Result{Charset: p.charset(), Confidence: c}
		}
	}
	best.Language = LanguageOf(best.Charset)
	return best
}

type oracleBOM struct {
	state   probeState
	cs      Charset
	offset  int
	total   int
	nulEven int
	nulOdd  int
	hdr     [2]byte
}

func (p *oracleBOM) charset() Charset {
	if p.cs == Unknown {
		return UTF16LE
	}
	return p.cs
}

func (p *oracleBOM) feed(b []byte) probeState {
	if p.state != probing {
		return p.state
	}
	for _, c := range b {
		if p.offset < 2 {
			p.hdr[p.offset] = c
			p.offset++
			p.total++
			if p.offset < 2 {
				continue
			}
			switch {
			case p.hdr[0] == 0xFE && p.hdr[1] == 0xFF:
				p.cs, p.state = UTF16BE, foundIt
				return p.state
			case p.hdr[0] == 0xFF && p.hdr[1] == 0xFE:
				p.cs, p.state = UTF16LE, foundIt
				return p.state
			}
			p.countNul(p.hdr[0], 0)
			p.countNul(p.hdr[1], 1)
			continue
		}
		p.countNul(c, p.offset)
		p.offset++
		p.total++
	}
	return p.state
}

func (p *oracleBOM) countNul(c byte, off int) {
	if c != 0 {
		return
	}
	if off%2 == 0 {
		p.nulEven++
	} else {
		p.nulOdd++
	}
}

func (p *oracleBOM) confidence() float64 {
	if p.state == foundIt {
		return 1
	}
	if p.total < 8 {
		return 0
	}
	nuls := p.nulEven + p.nulOdd
	if float64(nuls) < 0.25*float64(p.total) {
		return 0
	}
	var skewed int
	if p.nulOdd > p.nulEven {
		skewed = p.nulOdd
		p.cs = UTF16LE
	} else {
		skewed = p.nulEven
		p.cs = UTF16BE
	}
	ratio := float64(skewed) / float64(nuls)
	if ratio < 0.8 {
		return 0
	}
	return 0.85
}

type oracleESC struct {
	state probeState
	seq   uint8
}

func (p *oracleESC) charset() Charset { return ISO2022JP }

func (p *oracleESC) feed(b []byte) probeState {
	if p.state != probing {
		return p.state
	}
	for _, c := range b {
		switch p.seq {
		case 1:
			switch c {
			case '$':
				p.seq = 2
			case '(':
				p.seq = 3
			case 0x1B:
				p.seq = 1
			default:
				p.seq = 0
			}
		case 2:
			if c == 'B' || c == '@' {
				p.state = foundIt
				return p.state
			}
			if c == 0x1B {
				p.seq = 1
			} else {
				p.seq = 0
			}
		case 3:
			if c == 'J' {
				p.state = foundIt
				return p.state
			}
			if c == 0x1B {
				p.seq = 1
			} else {
				p.seq = 0
			}
		default:
			if c == 0x1B {
				p.seq = 1
			}
		}
	}
	return p.state
}

func (p *oracleESC) confidence() float64 {
	if p.state == foundIt {
		return 0.99
	}
	return 0
}

type oracleUTF8 struct {
	state   probeState
	multi   int
	pending int
}

func (p *oracleUTF8) charset() Charset { return UTF8 }

func (p *oracleUTF8) feed(b []byte) probeState {
	if p.state != probing {
		return p.state
	}
	for _, c := range b {
		switch {
		case p.pending > 0:
			if c&0xC0 != 0x80 {
				p.state = notMe
				return p.state
			}
			p.pending--
			if p.pending == 0 {
				p.multi++
			}
		case c < 0x80:
		case c&0xE0 == 0xC0:
			if c == 0xC0 || c == 0xC1 {
				p.state = notMe
				return p.state
			}
			p.pending = 1
		case c&0xF0 == 0xE0:
			p.pending = 2
		case c&0xF8 == 0xF0 && c <= 0xF4:
			p.pending = 3
		default:
			p.state = notMe
			return p.state
		}
	}
	return p.state
}

func (p *oracleUTF8) confidence() float64 {
	if p.state == notMe {
		return 0
	}
	if p.multi == 0 {
		return 0
	}
	c := 1.0 - 1.0/float64(1+p.multi)
	if c > 0.99 {
		c = 0.99
	}
	return 0.5 + 0.49*c
}

func oracleRowWeight(row byte) float64 {
	switch {
	case row == 4:
		return 1.0
	case row == 5:
		return 0.7
	case row == 1:
		return 0.6
	case row >= 16 && row <= 47:
		return 0.5
	default:
		return 0.05
	}
}

type oracleEUCJP struct {
	state  probeState
	chars  int
	weight float64
	lead   byte
}

func (p *oracleEUCJP) charset() Charset { return EUCJP }

func (p *oracleEUCJP) feed(b []byte) probeState {
	if p.state != probing {
		return p.state
	}
	for _, c := range b {
		if p.lead != 0 {
			if c < 0xA1 || c > 0xFE {
				p.state = notMe
				return p.state
			}
			p.chars++
			p.weight += oracleRowWeight(p.lead - 0xA0)
			p.lead = 0
			continue
		}
		switch {
		case c < 0x80:
		case c == 0x8E:
			p.lead = 0x8E
		case c >= 0xA1 && c <= 0xFE:
			p.lead = c
		default:
			p.state = notMe
			return p.state
		}
	}
	return p.state
}

func (p *oracleEUCJP) confidence() float64 {
	if p.state == notMe || p.chars == 0 {
		return 0
	}
	if p.lead != 0 {
		return 0
	}
	conf := p.weight / float64(p.chars)
	if conf > 0.99 {
		conf = 0.99
	}
	return conf
}

type oracleSJIS struct {
	state  probeState
	chars  int
	dbl    int
	weight float64
	lead   byte
}

func (p *oracleSJIS) charset() Charset { return ShiftJIS }

func (p *oracleSJIS) feed(b []byte) probeState {
	if p.state != probing {
		return p.state
	}
	for _, c := range b {
		if p.lead != 0 {
			h, _, ok := sjisToJis(p.lead, c)
			if !ok {
				p.state = notMe
				return p.state
			}
			p.chars++
			p.dbl++
			p.weight += oracleRowWeight(h - 0x20)
			p.lead = 0
			continue
		}
		switch {
		case c < 0x80:
		case c >= 0xA1 && c <= 0xDF:
			p.chars++
			p.weight += 0.3
		case sjisLead(c):
			p.lead = c
		default:
			p.state = notMe
			return p.state
		}
	}
	return p.state
}

func (p *oracleSJIS) confidence() float64 {
	if p.state == notMe || p.chars == 0 {
		return 0
	}
	if p.lead != 0 {
		return 0
	}
	avg := p.weight / float64(p.chars)
	if p.dbl == 0 && avg > 0.15 {
		avg = 0.15
	}
	if avg > 0.99 {
		avg = 0.99
	}
	return avg
}

var oracleThaiFrequent = [256]bool{
	0xA1: true, 0xA4: true, 0xA7: true, 0xB4: true, 0xB5: true, 0xB7: true,
	0xB9: true, 0xBA: true, 0xC1: true, 0xC2: true, 0xC3: true, 0xC5: true,
	0xC7: true, 0xCA: true, 0xCD: true, 0xD1: true, 0xD2: true, 0xD5: true,
	0xE0: true, 0xE1: true, 0xE8: true, 0xE9: true,
}

var oracleWin874Extra = map[byte]rune{
	0x80: '€', 0x85: '…', 0x91: '‘', 0x92: '’', 0x93: '“', 0x94: '”',
	0x95: '•', 0x96: '–', 0x97: '—',
}

type oracleThai struct {
	state    probeState
	cs       Charset
	thai     int
	frequent int
	invalid  int
	letters  int
	total    int
}

func (p *oracleThai) charset() Charset { return p.cs }

func (p *oracleThai) feed(b []byte) probeState {
	if p.state != probing {
		return p.state
	}
	for _, c := range b {
		p.total++
		switch {
		case c < 0x80:
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
				p.letters++
			}
		case thaiByteToRune(c) != 0:
			p.thai++
			if oracleThaiFrequent[c] {
				p.frequent++
			}
		case c == 0xA0 && p.cs != TIS620:
		case p.cs == Windows874 && oracleWin874Extra[c] != 0:
		default:
			p.invalid++
		}
	}
	return p.state
}

func (p *oracleThai) confidence() float64 {
	if p.thai == 0 {
		return 0
	}
	if p.invalid > 0 {
		if float64(p.invalid)/float64(p.thai+p.invalid) > 0.02 {
			return 0
		}
	}
	freqRatio := float64(p.frequent) / float64(p.thai)
	conf := freqRatio * 1.4
	density := float64(p.thai) / float64(p.thai+p.letters)
	if f := (density / 0.4) * (density / 0.4); f < 1 {
		conf *= f
	}
	if conf > 0.99 {
		conf = 0.99
	}
	return conf
}

type oracleASCII struct {
	state probeState
}

func (p *oracleASCII) charset() Charset { return ASCII }

func (p *oracleASCII) feed(b []byte) probeState {
	if p.state != probing {
		return p.state
	}
	for _, c := range b {
		if c >= 0x80 || c == 0x1B {
			p.state = notMe
			return p.state
		}
	}
	return p.state
}

func (p *oracleASCII) confidence() float64 {
	if p.state == notMe {
		return 0
	}
	return 0.6
}

type oracleLatin1 struct {
	high    int
	letters int
	seen    bool
}

func (p *oracleLatin1) charset() Charset { return Latin1 }

func (p *oracleLatin1) feed(b []byte) probeState {
	p.seen = true
	for _, c := range b {
		if c >= 0x80 {
			p.high++
			if c >= 0xC0 || c == 0xE9 {
				p.letters++
			}
		}
	}
	return probing
}

func (p *oracleLatin1) confidence() float64 {
	if !p.seen || p.high == 0 {
		return 0
	}
	r := float64(p.letters) / float64(p.high)
	return 0.05 + 0.25*r
}
