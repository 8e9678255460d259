// Package strictjson decodes JSON the way every durable or operator
// input of the fleet is read: an unknown field is an error, and so is
// anything but whitespace after the value. A typoed field decoded
// leniently would leave its target at the zero value with no error
// (a module enrolled with a zero noise model, a snapshot resumed with
// its host attempt counter at 0), and a second value after the first
// would be dropped without a word.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// Decode decodes exactly one JSON value from data into v, rejecting
// unknown object fields and trailing data.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("data after the JSON value")
	}
	return nil
}
