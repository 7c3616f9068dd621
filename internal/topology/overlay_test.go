package topology

import (
	"errors"
	"slices"
	"testing"
)

func TestFaultOverlayStableIDs(t *testing.T) {
	m := NewMesh(4, 4)
	o := NewFaultOverlay(m)
	if o.NumChannels() != m.NumChannels() || o.NumNodes() != m.NumNodes() {
		t.Fatalf("overlay resized the base: %d/%d channels, %d/%d nodes",
			o.NumChannels(), m.NumChannels(), o.NumNodes(), m.NumNodes())
	}
	ch := m.OutChannels(0)[0]
	c := m.Channel(ch)
	o.Disable(ch)
	if !slices.Contains(o.Dead(), ch) {
		t.Fatalf("channel %d still alive after Disable", ch)
	}
	// Dead channels keep their id and full Channel record.
	if got := o.Channel(ch); got != c {
		t.Fatalf("Channel(%d) changed after Disable: %+v != %+v", ch, got, c)
	}
	if o.NumChannels() != m.NumChannels() {
		t.Fatalf("NumChannels changed after Disable")
	}
	// But adjacency hides them.
	for _, id := range o.OutChannels(c.Src) {
		if id == ch {
			t.Fatalf("dead channel %d still in OutChannels(%d)", ch, c.Src)
		}
	}
	for _, id := range o.InChannels(c.Dst) {
		if id == ch {
			t.Fatalf("dead channel %d still in InChannels(%d)", ch, c.Dst)
		}
	}
	if got := o.ChannelFromTo(c.Src, c.Dst); got == ch {
		t.Fatalf("ChannelFromTo still returns dead channel %d", ch)
	}
	if got := o.Dead(); len(got) != 1 || got[0] != ch {
		t.Fatalf("Dead() = %v, want [%d]", got, ch)
	}
}

func TestFaultOverlayConnected(t *testing.T) {
	m := NewMesh(3, 3)
	o := NewFaultOverlay(m)
	if !o.Connected() {
		t.Fatalf("pristine mesh reported disconnected")
	}
	// Cut every channel touching node 0: the overlay must notice.
	var cut []ChannelID
	cut = append(cut, m.OutChannels(0)...)
	cut = append(cut, m.InChannels(0)...)
	o.Disable(cut...)
	if o.Connected() {
		t.Fatalf("isolated node 0 but overlay reported connected")
	}
}

func TestFaultedTooManyFaultsTyped(t *testing.T) {
	// A 2x2 mesh has 4 links; none are removable without disconnecting it.
	_, err := Faulted(NewMesh(2, 2), 1, 3)
	if err == nil {
		t.Fatalf("Faulted accepted an impossible fault count")
	}
	var tooMany *TooManyFaultsError
	if !errors.As(err, &tooMany) {
		t.Fatalf("error %v (%T) is not a *TooManyFaultsError", err, err)
	}
	if tooMany.Requested != 3 || tooMany.Width != 2 || tooMany.Height != 2 {
		t.Fatalf("TooManyFaultsError fields = %+v", *tooMany)
	}
	if tooMany.Removable >= tooMany.Requested {
		t.Fatalf("Removable %d not below Requested %d", tooMany.Removable, tooMany.Requested)
	}
}
