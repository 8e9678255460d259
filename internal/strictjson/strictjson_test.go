package strictjson

import "testing"

func TestDecode(t *testing.T) {
	type entry struct {
		Name string `json:"name"`
	}
	cases := []struct {
		in string
		ok bool
	}{
		{`{"name":"a"}`, true},
		{" {\"name\":\"a\"} \n", true},
		{`{"nmae":"a"}`, false},
		{`{"name":"a"}{"name":"b"}`, false},
		{`{"name":"a"} junk`, false},
		{`{"name":`, false},
	}
	for _, tc := range cases {
		var e entry
		if err := Decode([]byte(tc.in), &e); (err == nil) != tc.ok {
			t.Errorf("Decode(%q): err = %v, want ok = %v", tc.in, err, tc.ok)
		}
	}
}
