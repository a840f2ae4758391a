package netaddr

import (
	"testing"
	"testing/quick"
)

func TestParseIPv4(t *testing.T) {
	tests := []struct {
		in      string
		want    IPv4
		wantErr bool
	}{
		{in: "0.0.0.0", want: 0},
		{in: "255.255.255.255", want: 0xffffffff},
		{in: "192.168.1.2", want: FromOctets(192, 168, 1, 2)},
		{in: "4.2.101.20", want: FromOctets(4, 2, 101, 20)},
		{in: "214.96.0.1", want: FromOctets(214, 96, 0, 1)},
		{in: "256.0.0.0", wantErr: true},
		{in: "1.2.3", wantErr: true},
		{in: "1.2.3.4.5", wantErr: true},
		{in: "", wantErr: true},
		{in: "a.b.c.d", wantErr: true},
		{in: "1..2.3", wantErr: true},
		{in: "-1.2.3.4", wantErr: true},
		{in: "012.3.4.5", wantErr: true},      // leading zero: ambiguous as octal
		{in: "::ffff:1.2.3.4", wantErr: true}, // 4-in-6 is v6 (ParseAddr accepts it)
		{in: "fe80::1%eth0", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseIPv4(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseIPv4(%q): want error, got %v", tt.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseIPv4(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseIPv4(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestIPv4StringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IPv4(v)
		back, err := ParseIPv4(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixMasking(t *testing.T) {
	p := MustParsePrefix("192.168.77.200/24")
	if got := p.Addr(); got != FromOctets(192, 168, 77, 0).Addr() {
		t.Errorf("Addr() = %v, want 192.168.77.0", got)
	}
	if p.Bits() != 24 {
		t.Errorf("Bits() = %d, want 24", p.Bits())
	}
	if p.String() != "192.168.77.0/24" {
		t.Errorf("String() = %q", p.String())
	}
}

func TestPrefixContains(t *testing.T) {
	tests := []struct {
		prefix string
		ip     string
		want   bool
	}{
		{"214.32.0.0/11", "214.32.0.0", true},
		{"214.32.0.0/11", "214.63.255.255", true},
		{"214.32.0.0/11", "214.64.0.0", false},
		{"214.32.0.0/11", "214.31.255.255", false},
		{"0.0.0.0/0", "8.8.8.8", true},
		{"10.0.0.0/8", "10.255.0.1", true},
		{"10.0.0.0/8", "11.0.0.0", false},
		{"1.2.3.4/32", "1.2.3.4", true},
		{"1.2.3.4/32", "1.2.3.5", false},
	}
	for _, tt := range tests {
		p := MustParsePrefix(tt.prefix)
		ip := MustParseAddr(tt.ip)
		if got := p.Contains(ip); got != tt.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", p, ip, got, tt.want)
		}
	}
}

func TestPrefixFirstLastSize(t *testing.T) {
	p := MustParsePrefix("214.32.0.0/11")
	if p.Addr() != MustParseAddr("214.32.0.0") {
		t.Errorf("Addr() = %v", p.Addr())
	}
	if p.Last() != MustParseAddr("214.63.255.255") {
		t.Errorf("Last() = %v", p.Last())
	}
	if p.Size() != 1<<21 {
		t.Errorf("Size() = %d, want %d", p.Size(), 1<<21)
	}
	if got := p.Nth(0); got != p.Addr() {
		t.Errorf("Nth(0) = %v", got)
	}
	if got := p.Nth(p.Size() - 1); got != p.Last() {
		t.Errorf("Nth(last) = %v", got)
	}
}

func TestPrefixNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range did not panic")
		}
	}()
	p := MustParsePrefix("1.2.3.4/32")
	p.Nth(1)
}

// TestPrefixOverlaps: two prefixes overlap exactly when the shorter one
// contains the longer one's network address, the test blocks_test runs
// over its sorted sub-blocks.
func TestPrefixOverlaps(t *testing.T) {
	tests := []struct {
		short, long string
		want        bool
	}{
		{"4.0.0.0/8", "4.2.101.0/24", true},
		{"4.0.0.0/8", "5.0.0.0/8", false},
		{"5.0.0.0/8", "4.0.0.0/8", false},
		{"0.0.0.0/0", "9.9.9.9/32", true},
		{"214.0.0.0/11", "214.32.0.0/11", false},
	}
	for _, tt := range tests {
		a, b := MustParsePrefix(tt.short), MustParsePrefix(tt.long)
		if got := a.Contains(b.Addr()); got != tt.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", a, b.Addr(), got, tt.want)
		}
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, in := range []string{"", "1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "x/8", "1.2.3.4/x"} {
		if _, err := ParsePrefix(in); err == nil {
			t.Errorf("ParsePrefix(%q): want error", in)
		}
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(v uint32, bits uint8) bool {
		b := int(bits % 33)
		p := PrefixFrom4(IPv4(v), b)
		back, err := ParsePrefix(p.String())
		return err == nil && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
