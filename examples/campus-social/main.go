// Campus social: a miniature Gainesville. Three students use the
// AlleyOop Social app (the paper's overlay application) with
// interest-based routing: follows, a feed, follower notifications, and an
// end-to-end encrypted direct message relayed through a third device that
// cannot read it.
//
// Run with:
//
//	go run ./examples/campus-social
package main

import (
	"fmt"
	"log"
	"time"

	"sos"
	"sos/alleyoop"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2017, 4, 3, 8, 0, 0, 0, time.UTC)
	clk := sos.NewVirtualClock(start)
	ca, err := sos.NewCA("AlleyOop Root CA", clk)
	if err != nil {
		return err
	}
	cld := sos.NewCloud(ca, clk)
	medium := sos.NewSimMedium(clk)

	join := func(handle string) (*alleyoop.App, error) {
		return alleyoop.Join(alleyoop.Config{
			Cloud:    cld,
			Medium:   medium,
			Handle:   handle,
			PeerName: sos.PeerID(handle + "-phone"),
			Clock:    clk,
		})
	}
	maya, err := join("maya")
	if err != nil {
		return err
	}
	defer maya.Close()
	dev, err := join("dev")
	if err != nil {
		return err
	}
	defer dev.Close()
	rosa, err := join("rosa")
	if err != nil {
		return err
	}
	defer rosa.Close()

	// Social graph: the three friends follow each other. Under
	// interest-based routing only an author's subscribers request and
	// carry their messages, so rosa's direct message can reach maya via
	// dev only because both of them follow rosa.
	for _, f := range []struct {
		app    *alleyoop.App
		target string
	}{
		{dev, "maya"}, {dev, "rosa"}, {rosa, "maya"}, {rosa, "dev"}, {maya, "dev"}, {maya, "rosa"},
	} {
		if err := f.app.Follow(f.target); err != nil {
			return err
		}
	}

	meet := func(a, b string, d time.Duration) {
		medium.SetLink(sos.PeerID(a+"-phone"), sos.PeerID(b+"-phone"), sos.Bluetooth)
		clk.Advance(d)
		medium.CutLink(sos.PeerID(a+"-phone"), sos.PeerID(b+"-phone"))
		clk.Advance(time.Second)
	}

	// Morning: maya posts before class; she runs into dev at the library.
	if _, err := maya.Post("study group at the library, 3pm"); err != nil {
		return err
	}
	fmt.Println("08:00  maya posts 'study group at the library, 3pm'")
	meet("maya", "dev", 30*time.Second)
	fmt.Printf("08:01  dev's feed after meeting maya: %v\n", feedTexts(dev))

	// Afternoon: dev (now a forwarder for maya) bumps into rosa — maya's
	// post reaches rosa two hops out, with maya's certificate attached.
	clk.Advance(6 * time.Hour)
	meet("dev", "rosa", 30*time.Second)
	item := rosa.Feed()[0]
	fmt.Printf("14:01  rosa's feed after meeting dev: %q (author %s, %d hops)\n",
		item.Text, item.AuthorHandle, item.Hops)

	// Rosa now holds maya's verified certificate — enough to send her an
	// end-to-end encrypted DM that dev can carry but never read.
	mayaCert, ok := rosa.CertOf(sos.NewUserID("maya"))
	if !ok {
		return fmt.Errorf("rosa has no certificate for maya")
	}
	if _, err := rosa.DirectTo(mayaCert, "count me in for the study group!"); err != nil {
		return err
	}
	fmt.Println("14:02  rosa sends maya an end-to-end encrypted DM via dev")

	meet("dev", "rosa", 30*time.Second) // dev picks the envelope up
	meet("maya", "dev", 30*time.Second) // and hands it to maya

	inbox := maya.Inbox()
	if len(inbox) == 0 {
		return fmt.Errorf("maya's inbox is empty")
	}
	fmt.Printf("15:00  maya's inbox: %q from %s\n", inbox[0].Text, inbox[0].FromHandle)
	fmt.Printf("       maya's followers so far: %v\n", maya.Followers())
	return nil
}

func feedTexts(app *alleyoop.App) []string {
	var out []string
	for _, item := range app.Feed() {
		out = append(out, item.Text)
	}
	return out
}
