package fleetlog

import "fmt"

// newSerialClassifier builds a one-shard classifier that tests feed
// event by event through observe.
func newSerialClassifier(cfg ClassifierConfig) *classifier {
	return newClassifier(cfg, 1)
}

// observe folds one event in. Events may arrive in any order and any
// number of times.
func (c *classifier) observe(ev Event) error {
	if c.done {
		return fmt.Errorf("fleetlog: classifier already finished")
	}
	return c.shards[0].observe(&ev)
}

// decodeEvent decodes one payload into a fresh event.
func decodeEvent(p []byte) (Event, error) {
	var ev Event
	if err := decodeEventInto(p, &ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}
