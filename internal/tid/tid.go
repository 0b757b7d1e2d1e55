// Package tid defines site and transaction identifiers.
//
// Camelot transactions are grouped into families (a top-level
// transaction and all of its nested descendants, per the Moss model).
// A family identifier is globally unique — it embeds the originating
// site — and individual transactions within the family carry a
// sequence number that is again site-qualified so nested transactions
// may be begun at any site without coordination.
package tid

import "fmt"

// SiteID names a Camelot site (one machine running the four Camelot
// processes). Zero is reserved for "no site".
type SiteID uint32

// String renders the site as the paper's diagrams do ("site3").
func (s SiteID) String() string { return fmt.Sprintf("site%d", uint32(s)) }

// FamilyID identifies a transaction family: the high 32 bits are the
// originating site, the low 32 a per-site counter.
type FamilyID uint64

// MakeFamily builds a FamilyID from its parts.
func MakeFamily(origin SiteID, counter uint32) FamilyID {
	return FamilyID(uint64(origin)<<32 | uint64(counter))
}

// Origin returns the site at which the family was begun — the
// coordinator for the family's distributed commitment.
func (f FamilyID) Origin() SiteID { return SiteID(f >> 32) }

// Counter returns the per-site sequence component.
func (f FamilyID) Counter() uint32 { return uint32(f) }

// String renders the family as "F<site>.<n>".
func (f FamilyID) String() string {
	return fmt.Sprintf("F%d.%d", uint32(f.Origin()), f.Counter())
}

// Seq identifies a transaction within its family. The top-level
// transaction is always TopSeq; nested transactions get a
// site-qualified sequence (site in the high 32 bits) so any site can
// begin one without consulting the family's origin.
type Seq uint64

// TopSeq is the sequence number of every family's top-level
// transaction.
const TopSeq Seq = 0

// MakeSeq builds a nested-transaction sequence number.
func MakeSeq(site SiteID, counter uint32) Seq {
	return Seq(uint64(site)<<32 | uint64(counter))
}

// TID identifies one transaction. TIDs are comparable and valid map
// keys. The zero TID is not a valid transaction.
type TID struct {
	Family FamilyID
	Seq    Seq
}

// Top returns the TID of the family's top-level transaction.
func Top(f FamilyID) TID { return TID{Family: f, Seq: TopSeq} }

// IsTop reports whether t names a top-level transaction.
func (t TID) IsTop() bool { return t.Seq == TopSeq }

// IsZero reports whether t is the zero (invalid) TID.
func (t TID) IsZero() bool { return t == TID{} }

// TopLevel returns the top-level TID of t's family.
func (t TID) TopLevel() TID { return Top(t.Family) }

// String renders the TID as "F<site>.<n>" for top-level transactions
// and "F<site>.<n>/<seq>" for nested ones.
func (t TID) String() string {
	if t.IsTop() {
		return t.Family.String()
	}
	return fmt.Sprintf("%s/%d.%d", t.Family, uint32(t.Seq>>32), uint32(t.Seq))
}

// Parent returns the parent named by anc, a transaction's ancestor
// chain (outermost first): its last element, or the zero TID for a
// top-level transaction's empty chain.
func Parent(anc []TID) TID {
	if len(anc) == 0 {
		return TID{}
	}
	return anc[len(anc)-1]
}
